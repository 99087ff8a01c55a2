package server

import (
	"bufio"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda"
)

// TestAdmissionControlUnderClosedLoopHammer drives a server with a tight
// admission limit far above its admitted capacity and pins the load-shedding
// contract: every refused query fails with the clean overload error (never a
// hang, never a dropped connection), every admitted query answers
// bit-identically to an unloaded tree, both outcomes actually occur, the
// server's shed counter matches what clients saw, and the in-flight gauge
// returns to zero afterwards (no admission leak on any completion path).
func TestAdmissionControlUnderClosedLoopHammer(t *testing.T) {
	const (
		dims    = 3
		n       = 4000
		workers = 32
		iters   = 40
		nq      = 16 // queries per batch (the admission weight)
		k       = 4
	)
	tree, coords := testTree(t, n, dims)
	// The dispatcher starts held, so the first two batches park in the
	// intake and the limit sheds for certain before the hammer runs free.
	srv, addr, release := startHeldServer(t, tree, Config{
		MaxBatch:    8,
		MaxInFlight: 2 * nq, // two batches in flight; the rest shed
	})

	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := panda.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			queries := make([]float32, nq*dims)
			for it := 0; it < iters; it++ {
				for i := 0; i < nq; i++ {
					src := ((w*iters+it)*31 + i*7) % n
					copy(queries[i*dims:], coords[src*dims:(src+1)*dims])
				}
				got, err := c.KNNBatch(queries, k)
				if err != nil {
					if !panda.IsOverloaded(err) {
						errCh <- err
						return
					}
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				for qi := range got {
					want := tree.KNN(queries[qi*dims:(qi+1)*dims], k)
					if !sameNeighbors(got[qi], want) {
						errCh <- &mismatchError{worker: w, iter: it, query: qi}
						return
					}
				}
			}
		}(w)
	}
	waitUntil(t, "a shed request", func() bool { return srv.Stats().Shed > 0 })
	release()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if admitted.Load() == 0 {
		t.Fatal("admission limit admitted nothing: the server shed its whole capacity")
	}
	if shed.Load() == 0 {
		t.Fatalf("%d workers × %d batches against MaxInFlight=%d never saw an overload error", workers, iters, 2*nq)
	}
	if got := srv.Stats().Shed; got != shed.Load() {
		t.Fatalf("server counted %d shed requests, clients saw %d overload errors", got, shed.Load())
	}
	// Every admission must have been released — by the dispatcher answering,
	// not by luck — or the server would slowly wedge shut.
	deadline := time.Now().Add(2 * time.Second)
	for srv.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge stuck at %d after the hammer drained", srv.inflight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type mismatchError struct{ worker, iter, query int }

func (e *mismatchError) Error() string {
	return "admitted answer differs from the unloaded tree (worker " +
		strconv.Itoa(e.worker) + ", iter " + strconv.Itoa(e.iter) + ", query " + strconv.Itoa(e.query) + ")"
}

// TestOverloadKeepsConnectionUsable pins the refusal semantics at the
// protocol level: an overload answer is a KindError for the refused id only
// — the connection stays open and the very next query on it is answered.
func TestOverloadKeepsConnectionUsable(t *testing.T) {
	const dims = 3
	tree, coords := testTree(t, 1000, dims)
	// MaxInFlight 1 with the dispatcher held: the first query to arrive is
	// admitted and parks in the intake; every later one is over the limit.
	srv, addr, release := startHeldServer(t, tree, Config{MaxInFlight: 1})
	c, err := panda.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fire a volley of concurrent single queries; with limit 1 and nothing
	// dispatched, exactly one is admitted and the rest are refused.
	const volley = 8
	var wg sync.WaitGroup
	var ok, over atomic.Int64
	for i := 0; i < volley; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.KNN(coords[:dims], 3)
			switch {
			case err == nil:
				ok.Add(1)
			case panda.IsOverloaded(err):
				over.Add(1)
			}
		}()
	}
	waitUntil(t, "one admitted and the rest refused", func() bool {
		return len(srv.intake) == 1 && over.Load() == volley-1
	})
	release()
	wg.Wait()
	if ok.Load() != 1 || over.Load() != volley-1 {
		t.Fatalf("volley split ok=%d overloaded=%d, want 1 and %d", ok.Load(), over.Load(), volley-1)
	}
	// The same connection still answers: the refusals cost nothing.
	want := tree.KNN(coords[:dims], 3)
	got, err := c.KNN(coords[:dims], 3)
	if err != nil {
		t.Fatalf("query after overload refusals: %v", err)
	}
	if !sameNeighbors(got, want) {
		t.Fatal("post-overload answer differs from the tree")
	}
}

// TestMetricsEndpoint scrapes the /metrics handler after a known workload
// and validates the exposition: parseable line format, counters agreeing
// with Stats, and a coherent latency histogram (cumulative buckets
// monotonically nondecreasing, +Inf equal to the sample count).
func TestMetricsEndpoint(t *testing.T) {
	const dims = 3
	tree, coords := testTree(t, 1000, dims)
	srv, addr := startServer(t, tree, Config{})
	c, err := panda.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const queries = 20
	for i := 0; i < queries; i++ {
		if _, err := c.KNN(coords[i*dims:(i+1)*dims], 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RadiusSearch(coords[:dims], 0.01); err != nil {
		t.Fatal(err)
	}

	waitObserved(t, srv, queries+1)
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	samples := map[string]float64{}
	var bucketOrder []float64
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 1 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		name := line[:sp]
		samples[name] = v
		if strings.HasPrefix(name, "panda_request_latency_seconds_bucket{") {
			bucketOrder = append(bucketOrder, v)
		}
	}

	st := srv.Stats()
	if got := samples["panda_queries_total"]; got != float64(st.Queries) {
		t.Fatalf("panda_queries_total = %v, Stats().Queries = %d", got, st.Queries)
	}
	if samples[`panda_requests_total{kind="knn"}`] != queries {
		t.Fatalf(`panda_requests_total{kind="knn"} = %v, want %d`, samples[`panda_requests_total{kind="knn"}`], queries)
	}
	if samples[`panda_requests_total{kind="radius"}`] != 1 {
		t.Fatalf(`panda_requests_total{kind="radius"} = %v, want 1`, samples[`panda_requests_total{kind="radius"}`])
	}
	count := samples["panda_request_latency_seconds_count"]
	if count != queries+1 {
		t.Fatalf("latency count %v, want %d", count, queries+1)
	}
	if len(bucketOrder) != len(latencyBuckets)+1 {
		t.Fatalf("%d histogram buckets exported, want %d", len(bucketOrder), len(latencyBuckets)+1)
	}
	for i := 1; i < len(bucketOrder); i++ {
		if bucketOrder[i] < bucketOrder[i-1] {
			t.Fatalf("cumulative bucket %d (%v) below bucket %d (%v)", i, bucketOrder[i], i-1, bucketOrder[i-1])
		}
	}
	if inf := bucketOrder[len(bucketOrder)-1]; inf != count {
		t.Fatalf("+Inf bucket %v != count %v", inf, count)
	}
	if samples["panda_request_latency_seconds_sum"] <= 0 {
		t.Fatal("latency sum not positive after a workload")
	}
}
