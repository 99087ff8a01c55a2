// Tests for the distributed tracing layer: stage-histogram reconciliation
// against the end-to-end histogram (single-node and cluster-routed), traced
// queries carrying remote spans back to the originating rank, slow-query
// capture, the /debug/traces JSON document, and the trace ring under
// concurrent capture.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"panda"
	"panda/internal/proto"
)

// nStages is proto.NumStages as an int, for len comparisons.
const nStages = int(proto.NumStages)

// writeExposition renders srv's metrics and strict-parses them back.
func writeExposition(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	var buf strings.Builder
	srv.WriteMetrics(&buf)
	return parseExposition(t, buf.String())
}

// checkStageCounts asserts every per-stage _count equals the end-to-end
// histogram's _count: each observed request must observe every stage.
func checkStageCounts(t *testing.T, m map[string]float64, label string) {
	t.Helper()
	e2e := m["panda_request_latency_seconds_count"]
	if e2e == 0 {
		t.Fatalf("%s: end-to-end histogram observed nothing", label)
	}
	for _, stage := range proto.StageNames {
		key := `panda_stage_latency_seconds_count{stage="` + stage + `"}`
		if got := m[key]; got != e2e {
			t.Errorf("%s: %s = %v, want the end-to-end count %v", label, key, got, e2e)
		}
		inf := `panda_stage_latency_seconds_bucket{stage="` + stage + `",le="+Inf"}`
		if got := m[inf]; got != e2e {
			t.Errorf("%s: %s = %v, want %v", label, inf, got, e2e)
		}
	}
}

// TestStageMetricsReconcileSingleNode drives a single-node server with
// mixed single/batch KNN and radius queries and checks the per-stage
// histograms against the end-to-end one: equal counts for every stage, and
// the post-arrival stage sums (all but decode, which runs before the
// arrival stamp) summing to the end-to-end sum — the dispatcher path
// derives both from the same stamps, so they must telescope exactly.
func TestStageMetricsReconcileSingleNode(t *testing.T) {
	tree, coords := testTree(t, 3000, 3)
	srv, addr := startServer(t, tree, Config{})
	c, err := panda.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 40; i++ {
		if _, err := c.KNN(coords[i*3:(i+1)*3], 4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := c.KNNBatch(coords[:16*3], 3); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := c.RadiusSearch(coords[i*3:(i+1)*3], 0.01); err != nil {
			t.Fatal(err)
		}
	}

	waitObserved(t, srv, 55)
	m := writeExposition(t, srv)
	if got := m["panda_request_latency_seconds_count"]; got != 55 {
		t.Fatalf("end-to-end count = %v, want 55", got)
	}
	checkStageCounts(t, m, "single-node")

	var post float64
	for _, stage := range proto.StageNames {
		if stage == "decode" {
			continue
		}
		post += m[`panda_stage_latency_seconds_sum{stage="`+stage+`"}`]
	}
	e2eSum := m["panda_request_latency_seconds_sum"]
	if diff := post - e2eSum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("post-arrival stage sums = %v s, end-to-end sum = %v s (diff %v)", post, e2eSum, diff)
	}
}

// TestStageMetricsReconcileCluster checks the same count identity on every
// rank of a 4-rank cluster under a mixed workload hitting each rank
// directly — so forwarded, exchanged, and remote-kind requests all flow
// through the observation site.
func TestStageMetricsReconcileCluster(t *testing.T) {
	const dims, p = 3, 4
	coords := uniformCoords(2000, dims, 11)
	tc := startCluster(t, coords, dims, p, Config{})

	for r, addr := range tc.addrs {
		c, err := panda.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + r)))
		q := make([]float32, dims)
		for i := 0; i < 20; i++ {
			for d := range q {
				q[d] = rng.Float32()
			}
			if _, err := c.KNN(q, 5); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			for d := range q {
				q[d] = rng.Float32()
			}
			if _, err := c.RadiusSearch(q, 0.005); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		// The entry rank observes each request just after writing its
		// response: wait for all 25 before scraping.
		waitObserved(t, tc.servers[r], 25)
	}

	for r, srv := range tc.servers {
		checkStageCounts(t, writeExposition(t, srv), fmt.Sprintf("rank %d", r))
	}
}

// tapListener records every byte the server reads from the connections it
// accepts, so a test can decode what a client actually sent.
type tapListener struct {
	net.Listener
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *tapListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: nc, l: l}, nil
}

type tapConn struct {
	net.Conn
	l *tapListener
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.mu.Lock()
	c.l.buf.Write(b[:n])
	c.l.mu.Unlock()
	return n, err
}

// TestTracedSingleNodeQuery sends traced KNN queries to a single-node
// server and checks the waterfall the dispatcher returns: answers
// bit-identical to the tree, exactly the six stages recorded under rank -1
// and tiling contiguously from the arrival stamp, no remote exchange,
// post-arrival stages within the client-measured latency, and each trace
// captured in the ring under the id its request carried.
func TestTracedSingleNodeQuery(t *testing.T) {
	const dims, queries, k = 3, 16, 5
	tree, coords := testTree(t, 3000, dims)
	srv := New(tree, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapListener{Listener: ln}
	c, err := panda.Dial(serveOn(t, srv, tap))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < queries; i++ {
		q := coords[i*dims : (i+1)*dims]
		start := time.Now()
		nbrs, spans, err := c.KNNTraced(q, k)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNeighbors(nbrs, tree.KNN(q, k)) {
			t.Fatalf("query %d: traced KNN answer differs from the tree", i)
		}
		if len(spans) != nStages {
			t.Fatalf("query %d: got %d spans, want %d", i, len(spans), nStages)
		}
		var post int64
		for si, sp := range spans {
			if sp.Rank != -1 {
				t.Fatalf("query %d span %d: rank %d, want -1", i, si, sp.Rank)
			}
			if want := proto.StageName(uint8(si)); sp.Stage != want {
				t.Fatalf("query %d span %d: stage %q, want %q", i, si, sp.Stage, want)
			}
			if si == 0 {
				if sp.Start != -sp.Dur {
					t.Errorf("query %d: decode span starts at %d, want -dur %d", i, sp.Start, -sp.Dur)
				}
				continue
			}
			if sp.Start != post {
				t.Errorf("query %d span %s: starts at %d, want %d", i, sp.Stage, sp.Start, post)
			}
			if sp.Stage == "remote_exchange" && sp.Dur != 0 {
				t.Errorf("query %d: single-node remote_exchange = %d ns, want 0", i, sp.Dur)
			}
			post += sp.Dur
		}
		if time.Duration(post) > elapsed {
			t.Errorf("query %d: post-arrival stages sum to %v, above the client-measured %v", i, time.Duration(post), elapsed)
		}
	}

	// Decode the trace ids the requests carried off the tapped wire: the
	// hello, then one KNN frame per query.
	waitObserved(t, srv, queries)
	tap.mu.Lock()
	r := bytes.NewReader(tap.buf.Bytes())
	tap.mu.Unlock()
	if _, err := proto.ReadHello(r); err != nil {
		t.Fatal(err)
	}
	captured := map[uint64]bool{}
	for _, tr := range srv.Traces() {
		captured[tr.ID] = true
	}
	var req proto.Request
	for i := 0; i < queries; i++ {
		payload, err := proto.ReadFrame(r, nil)
		if err != nil {
			t.Fatalf("tapped request %d: %v", i, err)
		}
		if err := proto.ConsumeRequest(payload, dims, &req); err != nil {
			t.Fatalf("tapped request %d: %v", i, err)
		}
		if !req.Traced || req.TraceID == 0 {
			t.Fatalf("tapped request %d carries no trace id", i)
		}
		if !captured[req.TraceID] {
			t.Errorf("request %d: trace id %x not in the trace ring", i, req.TraceID)
		}
	}
}

// TestTracedClusterQuery sends traced KNN queries into one rank of a 4-rank
// cluster and checks the returned waterfalls: the landing rank's six stages
// tile contiguously, remote ranks contribute spans recorded under their own
// rank, the origin reports remote-exchange time, the origin's post-arrival
// stages sum to (at most) the client-measured latency, and the same traces
// land in the capture rings of the origin and of the remote ranks.
func TestTracedClusterQuery(t *testing.T) {
	const dims, p = 3, 4
	coords := uniformCoords(3000, dims, 13)
	tc := startCluster(t, coords, dims, p, Config{})

	c, err := panda.Dial(tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	rng := rand.New(rand.NewSource(77))
	q := make([]float32, dims)
	sawRemoteRank := false
	sawExchange := false
	for i := 0; i < 32; i++ {
		for d := range q {
			q[d] = rng.Float32()
		}
		start := time.Now()
		nbrs, spans, err := c.KNNTraced(q, 5)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNeighbors(nbrs, ref.KNN(q, 5)) {
			t.Fatalf("query %d: traced KNN answer differs from the reference tree", i)
		}
		if len(spans) < nStages {
			t.Fatalf("query %d: got %d spans, want at least the %d origin stages", i, len(spans), nStages)
		}

		// The origin's stages come first, recorded under the landing rank,
		// tiling contiguously from the arrival stamp (decode ends at 0).
		var originSum int64
		off := int64(0)
		for si := 0; si < nStages; si++ {
			sp := spans[si]
			if sp.Rank != 0 {
				t.Fatalf("query %d span %d: rank %d, want the landing rank 0", i, si, sp.Rank)
			}
			if want := proto.StageName(uint8(si)); sp.Stage != want {
				t.Fatalf("query %d span %d: stage %q, want %q", i, si, sp.Stage, want)
			}
			if si == 0 {
				if sp.Start != -sp.Dur {
					t.Errorf("query %d: decode span starts at %d, want -dur %d", i, sp.Start, -sp.Dur)
				}
				continue
			}
			if sp.Start != off {
				t.Errorf("query %d span %s: starts at %d, want %d", i, sp.Stage, sp.Start, off)
			}
			off += sp.Dur
			originSum += sp.Dur
			if sp.Stage == "remote_exchange" && sp.Dur > 0 {
				sawExchange = true
			}
		}
		// Post-arrival server time cannot exceed what the client measured
		// around the whole call (same process, monotonic clock; slack for
		// the response's network hop and scheduling noise).
		if limit := elapsed + 2*time.Millisecond; time.Duration(originSum) > limit {
			t.Errorf("query %d: origin stages sum to %v, above the client-measured %v", i, time.Duration(originSum), elapsed)
		}
		for _, sp := range spans[nStages:] {
			if sp.Rank != 0 {
				sawRemoteRank = true
			}
		}
	}
	if !sawRemoteRank {
		t.Error("no traced query carried a span recorded on a remote rank")
	}
	if !sawExchange {
		t.Error("no traced query reported remote-exchange time at the origin")
	}

	// Client-requested traces are captured in the origin's ring…
	origin := tc.servers[0].Traces()
	if len(origin) == 0 {
		t.Fatal("origin rank captured no traces")
	}
	foundRemote := false
	for _, tr := range origin {
		if !tr.Sampled || tr.ID == 0 {
			t.Fatalf("origin trace not marked as a client-requested sample: %+v", tr)
		}
		for _, sp := range tr.Spans {
			if sp.Rank != 0 {
				foundRemote = true
			}
		}
	}
	if !foundRemote {
		t.Error("no captured origin trace holds a remote rank's span")
	}
	// …and the trace id propagates, so remote ranks capture their half too.
	remoteCaptured := 0
	for _, srv := range tc.servers[1:] {
		remoteCaptured += len(srv.Traces())
	}
	if remoteCaptured == 0 {
		t.Error("no remote rank captured a trace for the propagated trace ids")
	}
}

// TestServerSampledTracing checks TraceSample=1 captures every query into
// the ring without the client asking — and that the response to the
// untraced client carries no spans.
func TestServerSampledTracing(t *testing.T) {
	tree, coords := testTree(t, 1500, 3)
	srv, addr := startServer(t, tree, Config{TraceSample: 1})
	c, err := panda.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 8; i++ {
		if _, err := c.KNN(coords[i*3:(i+1)*3], 3); err != nil {
			t.Fatal(err)
		}
	}
	waitObserved(t, srv, 8)
	traces := srv.Traces()
	if len(traces) != 8 {
		t.Fatalf("captured %d traces, want 8", len(traces))
	}
	for _, tr := range traces {
		if !tr.Sampled || tr.ID == 0 || tr.Slow {
			t.Fatalf("sampled trace has wrong flags: %+v", tr)
		}
		if len(tr.Spans) != nStages {
			t.Fatalf("sampled trace has %d spans, want %d", len(tr.Spans), nStages)
		}
		if tr.Rank != -1 {
			t.Fatalf("single-node trace recorded rank %d, want -1", tr.Rank)
		}
	}
}

// TestSlowQueryCapture checks SlowQuery always captures (1ns: everything is
// slow) even with sampling off, flags the records, and feeds the slow
// counters — global, per-tenant, and the exposition.
func TestSlowQueryCapture(t *testing.T) {
	tree, coords := testTree(t, 1500, 3)
	srv, addr := startServer(t, tree, Config{SlowQuery: time.Nanosecond})
	c, err := panda.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 5; i++ {
		if _, err := c.KNN(coords[i*3:(i+1)*3], 3); err != nil {
			t.Fatal(err)
		}
	}
	waitObserved(t, srv, 5)
	traces := srv.Traces()
	if len(traces) != 5 {
		t.Fatalf("captured %d traces, want 5", len(traces))
	}
	for _, tr := range traces {
		if !tr.Slow || tr.Sampled || tr.ID != 0 {
			t.Fatalf("slow capture has wrong flags: %+v", tr)
		}
		if tr.E2ENS <= 0 {
			t.Fatalf("slow capture has non-positive e2e: %+v", tr)
		}
	}
	m := writeExposition(t, srv)
	if got := m["panda_slow_total"]; got != 5 {
		t.Errorf("panda_slow_total = %v, want 5", got)
	}
	if got := m[`panda_tenant_slow_total{dataset="default"}`]; got != 5 {
		t.Errorf(`panda_tenant_slow_total{dataset="default"} = %v, want 5`, got)
	}
}

// TestTracesHandlerJSON checks the /debug/traces document shape: a
// {"traces": [...]} object, newest first, spans carrying exposition stage
// labels.
func TestTracesHandlerJSON(t *testing.T) {
	tree, coords := testTree(t, 1500, 3)
	srv, addr := startServer(t, tree, Config{TraceSample: 1})
	c, err := panda.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.KNN(coords[i*3:(i+1)*3], 3); err != nil {
			t.Fatal(err)
		}
	}

	waitObserved(t, srv, 3)
	rec := httptest.NewRecorder()
	srv.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Traces []struct {
			Seq     uint64 `json:"seq"`
			Kind    string `json:"kind"`
			Sampled bool   `json:"sampled"`
			E2ENS   int64  `json:"e2e_ns"`
			Spans   []struct {
				Stage string `json:"stage"`
				Rank  int32  `json:"rank"`
				DurNS int64  `json:"dur_ns"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decoding /debug/traces: %v", err)
	}
	if len(doc.Traces) != 3 {
		t.Fatalf("document holds %d traces, want 3", len(doc.Traces))
	}
	valid := map[string]bool{}
	for _, name := range proto.StageNames {
		valid[name] = true
	}
	for i, tr := range doc.Traces {
		if i > 0 && doc.Traces[i-1].Seq <= tr.Seq {
			t.Errorf("traces not newest-first: seq %d then %d", doc.Traces[i-1].Seq, tr.Seq)
		}
		if tr.Kind != "knn" || !tr.Sampled || tr.E2ENS <= 0 {
			t.Errorf("trace %d has wrong fields: %+v", i, tr)
		}
		if len(tr.Spans) != nStages {
			t.Errorf("trace %d has %d spans, want %d", i, len(tr.Spans), nStages)
		}
		for _, sp := range tr.Spans {
			if !valid[sp.Stage] {
				t.Errorf("trace %d span has unknown stage %q", i, sp.Stage)
			}
		}
	}
}

// TestTraceRingConcurrent hammers the ring with parallel writers and
// readers; under -race this doubles as the data-race check for the
// lock-free publication.
func TestTraceRingConcurrent(t *testing.T) {
	ring := newTraceRing(traceRingSize)
	const writers, perWriter, readers = 8, 500, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := ring.snapshot()
				if len(snap) > traceRingSize {
					t.Errorf("snapshot holds %d traces, ring size is %d", len(snap), traceRingSize)
					return
				}
				for i := 1; i < len(snap); i++ {
					if snap[i-1].Seq <= snap[i].Seq {
						t.Errorf("snapshot not newest-first at %d", i)
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				ring.put(&Trace{Kind: "knn", Rank: int32(w)})
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	snap := ring.snapshot()
	if len(snap) != traceRingSize {
		t.Fatalf("final snapshot holds %d traces, want a full ring of %d", len(snap), traceRingSize)
	}
	seen := map[uint64]bool{}
	for _, tr := range snap {
		if seen[tr.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", tr.Seq)
		}
		seen[tr.Seq] = true
	}
}
