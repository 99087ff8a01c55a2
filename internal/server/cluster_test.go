package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"panda"
	"panda/internal/proto"
)

// testCluster is a p-rank serving cluster over loopback: every rank joined
// a real TCP mesh (JoinTCPListener), built its DistTree shard, and serves
// external clients on its own address.
type testCluster struct {
	addrs   []string
	servers []*Server
	dts     []*panda.DistTree
	closers []func() error
}

// startCluster shards coords round-robin over p ranks (neighbor ids are
// global point indices, so answers match a single tree over coords), builds
// the distributed tree over a loopback TCP mesh, and starts one cluster
// server per rank.
func startCluster(t testing.TB, coords []float32, dims, p int, cfg Config) *testCluster {
	t.Helper()
	n := len(coords) / dims

	meshLns := make([]net.Listener, p)
	meshAddrs := make([]string, p)
	for r := 0; r < p; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		meshLns[r] = ln
		meshAddrs[r] = ln.Addr().String()
	}

	tc := &testCluster{
		addrs:   make([]string, p),
		servers: make([]*Server, p),
		dts:     make([]*panda.DistTree, p),
		closers: make([]func() error, p),
	}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			node, closeMesh, err := panda.JoinTCPListener(r, meshLns[r], meshAddrs, 1)
			if err != nil {
				errs[r] = err
				return
			}
			tc.closers[r] = closeMesh
			var shard []float32
			var ids []int64
			for i := r; i < n; i += p {
				shard = append(shard, coords[i*dims:(i+1)*dims]...)
				ids = append(ids, int64(i))
			}
			tc.dts[r], errs[r] = node.Build(shard, dims, ids, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d build: %v", r, err)
		}
	}

	serveLns := make([]net.Listener, p)
	for r := 0; r < p; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveLns[r] = ln
		tc.addrs[r] = ln.Addr().String()
	}
	for r := 0; r < p; r++ {
		srv, err := NewCluster(tc.dts[r], ClusterConfig{
			Config:      cfg,
			ServeAddrs:  tc.addrs,
			TotalPoints: int64(n),
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.servers[r] = srv
		go srv.Serve(serveLns[r])
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, srv := range tc.servers {
			srv.Shutdown(ctx)
		}
		for _, cl := range tc.closers {
			if cl != nil {
				cl()
			}
		}
	})
	return tc
}

func uniformCoords(n, dims int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float32, n*dims)
	for i := range coords {
		coords[i] = rng.Float32()
	}
	return coords
}

// TestClusterServingE2E is the acceptance workload: a 4-rank loopback
// cluster answers a ≥10k-query mixed KNN/radius workload bit-identically to
// a single tree built over the union of the shards. Clients connect to
// every rank, so most queries route through non-owner ranks (forwarding +
// remote-candidate exchange).
func TestClusterServingE2E(t *testing.T) {
	const (
		dims  = 3
		n     = 12000
		p     = 4
		batch = 64
	)
	coords := uniformCoords(n, dims, 7)
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, coords, dims, p, Config{MaxBatch: 48})

	var total, forwarded int
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, p)
	for ci := 0; ci < p; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := panda.Dial(tc.addrs[ci])
			if err != nil {
				errCh <- fmt.Errorf("client %d: dial: %w", ci, err)
				return
			}
			defer c.Close()
			if c.Len() != n {
				errCh <- fmt.Errorf("client %d: welcome len %d, want cluster total %d", ci, c.Len(), n)
				return
			}
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			queries := make([]float32, batch*dims)
			localTotal, localFwd := 0, 0
			for round := 0; round < 42; round++ {
				for i := range queries {
					queries[i] = rng.Float32() * 1.1 // some queries fall outside the box
				}
				k := 1 + rng.Intn(10)
				got, err := c.KNNBatch(queries, k)
				if err != nil {
					errCh <- fmt.Errorf("client %d round %d: %w", ci, round, err)
					return
				}
				for qi := range got {
					q := queries[qi*dims : (qi+1)*dims]
					want := ref.KNN(q, k)
					if !sameNeighbors(got[qi], want) {
						errCh <- fmt.Errorf("client %d round %d query %d (k=%d): got %v want %v",
							ci, round, qi, k, got[qi], want)
						return
					}
					if tc.dts[0].Owner(q) != ci {
						localFwd++
					}
				}
				localTotal += batch

				// Mixed workload: a radius query and a single KNN per round.
				q := queries[:dims]
				r2 := rng.Float32() * 0.01
				gotR, err := c.RadiusSearch(q, r2)
				if err != nil {
					errCh <- fmt.Errorf("client %d round %d: radius: %w", ci, round, err)
					return
				}
				if want := ref.RadiusSearch(q, r2); !sameNeighbors(gotR, want) {
					errCh <- fmt.Errorf("client %d round %d: radius mismatch: got %v want %v", ci, round, gotR, want)
					return
				}
				gotS, err := c.KNN(q, 5)
				if err != nil {
					errCh <- fmt.Errorf("client %d round %d: single KNN: %w", ci, round, err)
					return
				}
				if want := ref.KNN(q, 5); !sameNeighbors(gotS, want) {
					errCh <- fmt.Errorf("client %d round %d: single KNN mismatch", ci, round)
					return
				}
				localTotal += 2
			}
			mu.Lock()
			total += localTotal
			forwarded += localFwd
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if total < 10000 {
		t.Fatalf("workload ran %d queries, want ≥ 10000", total)
	}
	if forwarded == 0 {
		t.Fatal("no query routed through a non-owner rank; forwarding path untested")
	}
	t.Logf("%d queries bit-identical (%d routed via non-owner ranks)", total, forwarded)
}

// TestClusterKExceedsShard forces the unbounded fan-out path: k larger than
// every local shard, so owners must query all ranks with r' = ∞ and still
// produce the exact global top-k.
func TestClusterKExceedsShard(t *testing.T) {
	const (
		dims = 2
		n    = 48
		p    = 4
	)
	coords := uniformCoords(n, dims, 11)
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, coords, dims, p, Config{})
	c, err := panda.Dial(tc.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	q := make([]float32, dims)
	for trial := 0; trial < 20; trial++ {
		for d := range q {
			q[d] = rng.Float32()
		}
		for _, k := range []int{13, 16, 60} {
			got, err := c.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.KNN(q, k)
			if k <= 16 {
				if !sameNeighbors(got, want) {
					t.Fatalf("k=%d: got %v want %v", k, got, want)
				}
				continue
			}
			// k > 16 uses binary-heap tie eviction, which is insertion-order
			// dependent; compare distances only (the exactness guarantee).
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d neighbors, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i].Dist2 != want[i].Dist2 {
					t.Fatalf("k=%d neighbor %d: dist %v want %v", k, i, got[i].Dist2, want[i].Dist2)
				}
			}
		}
	}
}

// TestClusterExactDistanceTies pins the boundary-tie semantics on a
// regular grid, the worst case for exact ties: a query at a cell center
// has four neighbors at exactly d² = 0.5, and near domain boundaries those
// ties straddle shards. The documented guarantee (shared with the SPMD
// engine): neighbor distances are always exactly the union tree's, each
// returned id really lies at its reported distance (a valid exact-KNN
// answer), and radius results — which have no retention limit — are
// bit-identical including ids.
func TestClusterExactDistanceTies(t *testing.T) {
	const (
		dims = 2
		side = 20
		p    = 4
	)
	coords := make([]float32, 0, side*side*dims)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			coords = append(coords, float32(x), float32(y))
		}
	}
	dist2 := func(q []float32, id int64) float32 {
		dx := q[0] - coords[id*dims]
		dy := q[1] - coords[id*dims+1]
		return dx*dx + dy*dy
	}
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, coords, dims, p, Config{})
	c, err := panda.Dial(tc.addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := make([]float32, dims)
	for x := 0; x < side-1; x++ {
		for y := 0; y < side-1; y++ {
			q[0], q[1] = float32(x)+0.5, float32(y)+0.5
			for _, k := range []int{1, 2, 3} {
				got, err := c.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.KNN(q, k)
				if len(got) != len(want) {
					t.Fatalf("center (%v,%v) k=%d: %d neighbors, want %d", q[0], q[1], k, len(got), len(want))
				}
				seen := map[int64]bool{}
				for i := range got {
					if got[i].Dist2 != want[i].Dist2 {
						t.Fatalf("center (%v,%v) k=%d neighbor %d: dist %v, want %v",
							q[0], q[1], k, i, got[i].Dist2, want[i].Dist2)
					}
					if d := dist2(q, got[i].ID); d != got[i].Dist2 {
						t.Fatalf("center (%v,%v) k=%d: id %d reported at %v but lies at %v",
							q[0], q[1], k, got[i].ID, got[i].Dist2, d)
					}
					if seen[got[i].ID] {
						t.Fatalf("center (%v,%v) k=%d: duplicate id %d", q[0], q[1], k, got[i].ID)
					}
					seen[got[i].ID] = true
				}
			}
			// Radius search retains everything in the ball: bit-identical
			// even across the four exactly-tied d²=0.5 neighbors.
			gotR, err := c.RadiusSearch(q, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.RadiusSearch(q, 0.6); !sameNeighbors(gotR, want) {
				t.Fatalf("center (%v,%v) radius: got %v want %v", q[0], q[1], gotR, want)
			}
		}
	}
}

// TestClusterNaNRejectedKeepsConnection sends a NaN-coordinate request over
// a raw connection (the Client refuses to encode one) and checks the
// cluster rank answers KindError and keeps serving the connection.
func TestClusterNaNRejectedKeepsConnection(t *testing.T) {
	const (
		dims = 3
		n    = 600
		p    = 2
	)
	coords := uniformCoords(n, dims, 23)
	tc := startCluster(t, coords, dims, p, Config{})

	nc, err := net.Dial("tcp", tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(proto.AppendHello(nil, "")); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.ReadWelcome(nc); err != nil {
		t.Fatal(err)
	}
	send := func(payload []byte) {
		t.Helper()
		buf := proto.BeginFrame(nil)
		buf = append(buf, payload...)
		if err := proto.FinishFrame(buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	readResp := func() proto.Response {
		t.Helper()
		payload, err := proto.ReadFrame(nc, nil)
		if err != nil {
			t.Fatal(err)
		}
		var resp proto.Response
		if err := proto.ConsumeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	send(proto.AppendKNNRequest(nil, 1, 3, []float32{0.5, nan, 0.5}, dims))
	if resp := readResp(); resp.Kind != proto.KindError || resp.ID != 1 {
		t.Fatalf("NaN KNN: got kind %d id %d, want KindError id 1", resp.Kind, resp.ID)
	}
	send(proto.AppendKNNRequest(nil, 2, 3, []float32{0.5, inf, 0.5}, dims))
	if resp := readResp(); resp.Kind != proto.KindError {
		t.Fatalf("Inf KNN: got kind %d, want KindError", resp.Kind)
	}
	send(proto.AppendRadiusRequest(nil, 3, nan, []float32{0.5, 0.5, 0.5}))
	if resp := readResp(); resp.Kind != proto.KindError {
		t.Fatalf("NaN r2: got kind %d, want KindError", resp.Kind)
	}
	// The connection must still answer a valid request afterwards.
	send(proto.AppendKNNRequest(nil, 4, 3, []float32{0.5, 0.5, 0.5}, dims))
	if resp := readResp(); resp.Kind != proto.KindNeighbors || resp.ID != 4 {
		t.Fatalf("valid KNN after rejections: got kind %d id %d", resp.Kind, resp.ID)
	}

	// Client-side validation refuses to send non-finite inputs at all.
	c, err := panda.Dial(tc.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.KNN([]float32{nan, 0, 0}, 2); err == nil {
		t.Fatal("client accepted NaN coordinate")
	}
	if _, err := c.RadiusSearch([]float32{0.5, 0.5, 0.5}, inf); err == nil {
		t.Fatal("client accepted +Inf radius")
	}
}

// TestClusterRankDisconnectMidBatch kills one rank mid-workload: requests
// needing the dead rank answer KindError (no hang), the client connection
// to a surviving rank stays usable, and queries that never touch the dead
// rank's domain keep answering bit-identically.
func TestClusterRankDisconnectMidBatch(t *testing.T) {
	const (
		dims = 3
		n    = 4000
		p    = 4
		dead = 3
	)
	coords := uniformCoords(n, dims, 41)
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, coords, dims, p, Config{})
	c, err := panda.Dial(tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(5))
	randQ := func() []float32 {
		q := make([]float32, dims)
		for d := range q {
			q[d] = rng.Float32()
		}
		return q
	}
	// Queries whose whole k=3 neighbor ball stays clear of the dead rank's
	// domain keep working after the disconnect; classify with the reference
	// tree's exact kth distance.
	var safe, doomed [][]float32
	for len(safe) < 8 || len(doomed) < 8 {
		q := randQ()
		owner := tc.dts[0].Owner(q)
		r2 := ref.KNN(q, 3)[2].Dist2
		touches := owner == dead
		for _, r := range tc.dts[0].RanksWithin(q, r2, owner, nil) {
			if r == dead {
				touches = true
			}
		}
		if touches && len(doomed) < 8 {
			doomed = append(doomed, q)
		} else if !touches && owner != dead && len(safe) < 8 {
			safe = append(safe, q)
		}
	}

	// Warm up: everything answers while all ranks are alive.
	for _, q := range append(append([][]float32{}, safe...), doomed...) {
		got, err := c.KNN(q, 3)
		if err != nil {
			t.Fatalf("pre-disconnect: %v", err)
		}
		if want := ref.KNN(q, 3); !sameNeighbors(got, want) {
			t.Fatalf("pre-disconnect mismatch")
		}
	}

	// Kill rank `dead` mid-run (its server stops; mesh is irrelevant after
	// build). In-flight and subsequent queries needing it must error, not
	// hang — the batch containing them answers KindError.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.servers[dead].Shutdown(ctx); err != nil {
		t.Fatalf("shutdown rank %d: %v", dead, err)
	}

	deadline := time.Now().Add(10 * time.Second)
	sawError := false
	for !sawError {
		if time.Now().After(deadline) {
			t.Fatal("queries owned by the dead rank never errored")
		}
		// A batch mixing safe and doomed queries: the response for the
		// whole request is a KindError naming the failure.
		batch := append(append([]float32{}, safe[0]...), doomed[0]...)
		if _, err := c.KNNBatch(batch, 3); err != nil {
			sawError = true
		}
	}
	// The connection survived the errors and still answers exact results
	// for queries that avoid the dead rank.
	for _, q := range safe {
		got, err := c.KNN(q, 3)
		if err != nil {
			t.Fatalf("safe query after disconnect: %v", err)
		}
		if want := ref.KNN(q, 3); !sameNeighbors(got, want) {
			t.Fatal("safe query mismatch after disconnect")
		}
	}
}

// TestHandshakeVersionMismatchExplicitReject checks the server rejects a
// mismatched protocol version before revealing tree metadata: the full v3
// rejection welcome (server version, zeroed dims/points/fingerprint, empty
// name), then the connection closes — and the client surfaces "server speaks
// version X" from it.
func TestHandshakeVersionMismatchExplicitReject(t *testing.T) {
	tree, _ := testTree(t, 500, 3)
	_, addr := startServer(t, tree, Config{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A future-version hello: magic + version 99.
	hello := binary.LittleEndian.AppendUint32(append([]byte{}, proto.Magic[:]...), 99)
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var welcome [32]byte
	if _, err := io.ReadFull(nc, welcome[:]); err != nil {
		t.Fatalf("no welcome on version mismatch: %v", err)
	}
	if string(welcome[:4]) != "PNDQ" {
		t.Fatalf("bad magic %q", welcome[:4])
	}
	version := binary.LittleEndian.Uint32(welcome[4:8])
	dims := binary.LittleEndian.Uint32(welcome[8:12])
	points := binary.LittleEndian.Uint64(welcome[12:20])
	fp := binary.LittleEndian.Uint64(welcome[20:28])
	nlen := binary.LittleEndian.Uint32(welcome[28:32])
	if version != proto.Version {
		t.Fatalf("welcome version %d, want server's %d", version, proto.Version)
	}
	if dims != 0 || points != 0 || fp != 0 {
		t.Fatalf("mismatch welcome leaked tree metadata: dims=%d points=%d fp=%x", dims, points, fp)
	}
	if nlen != 0 {
		t.Fatalf("mismatch welcome carries a %d-byte name, want none", nlen)
	}
	// And then the connection closes.
	var one [1]byte
	if _, err := nc.Read(one[:]); err == nil {
		t.Fatal("connection stayed open after version mismatch")
	}

	// Client-side surfacing order: a mismatched-version welcome must report
	// the version difference, not the zeroed dims. This is exactly what a
	// v3 client sees against a pre-v3 server, which rejects the unknown
	// hello by answering with its own version and zeroed metadata.
	w := append([]byte{}, proto.Magic[:]...)
	w = binary.LittleEndian.AppendUint32(w, 2) // a hypothetical v2 server
	w = binary.LittleEndian.AppendUint32(w, 0)
	w = binary.LittleEndian.AppendUint64(w, 0)
	if _, err := proto.ReadWelcome(bytes.NewReader(w)); err == nil {
		t.Fatal("v2 server welcome accepted by v3 client")
	} else if got := err.Error(); !strings.Contains(got, "version") {
		t.Fatalf("mismatch error %q does not mention the version", got)
	}
}
