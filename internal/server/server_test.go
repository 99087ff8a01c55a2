package server

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"panda"
	"panda/internal/proto"
)

// testTree builds a deterministic uniform tree for serving tests.
func testTree(t testing.TB, n, dims int) (*panda.Tree, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	coords := make([]float32, n*dims)
	for i := range coords {
		coords[i] = rng.Float32()
	}
	tree, err := panda.Build(coords, dims, nil, &panda.BuildOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	return tree, coords
}

// startServer serves tree on loopback and returns the address plus a
// cleanup that shuts the server down.
func startServer(t testing.TB, tree *panda.Tree, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(tree, cfg)
	return srv, serveLoopback(t, srv)
}

// startHeldServer is startServer with the dispatcher held before its first
// round: requests are read off the wire and queued on the intake but not
// dispatched until release is called (cleanup releases it too).
func startHeldServer(t testing.TB, tree *panda.Tree, cfg Config) (srv *Server, addr string, release func()) {
	t.Helper()
	srv = New(tree, cfg)
	srv.hold = make(chan struct{})
	addr = serveLoopback(t, srv)
	var once sync.Once
	release = func() { once.Do(func() { close(srv.hold) }) }
	t.Cleanup(release) // runs before serveLoopback's Shutdown
	return srv, addr, release
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitObserved waits until srv has observed n answered requests. The server
// observes a request just after writing its response, so a client holding
// its last answer must wait here before reading metrics or traces.
func waitObserved(t testing.TB, srv *Server, n int64) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d observed requests", n), func() bool {
		var observed int64
		for _, e := range srv.reg.tenants {
			observed += e.latency.count.Load()
		}
		return observed >= n
	})
}

// serveLoopback serves srv on a loopback port and returns the address; a
// test cleanup shuts it down.
func serveLoopback(t testing.TB, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, srv, ln)
}

// serveOn serves srv on ln and returns its address; a test cleanup shuts
// it down.
func serveOn(t testing.TB, srv *Server, ln net.Listener) string {
	t.Helper()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveErr; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

func sameNeighbors(got, want []panda.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestServeLoopbackE2E drives the server with 32 concurrent clients mixing
// single KNN, batch KNN, and radius queries, and cross-checks every
// response bit-for-bit against the tree's direct answers.
func TestServeLoopbackE2E(t *testing.T) {
	const (
		dims    = 3
		nPoints = 4000
		clients = 32
		opsPer  = 24
	)
	tree, _ := testTree(t, nPoints, dims)
	_, addr := startServer(t, tree, Config{MaxBatch: 48})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := panda.Dial(addr)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", ci, err)
				return
			}
			defer c.Close()
			if c.Dims() != dims || c.Len() != nPoints {
				errs <- fmt.Errorf("client %d: welcome dims=%d len=%d", ci, c.Dims(), c.Len())
				return
			}
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			q := make([]float32, dims)
			for op := 0; op < opsPer; op++ {
				for d := range q {
					q[d] = rng.Float32()
				}
				switch op % 3 {
				case 0: // single KNN
					k := 1 + rng.Intn(8)
					got, err := c.KNN(q, k)
					if err != nil {
						errs <- fmt.Errorf("client %d op %d: KNN: %w", ci, op, err)
						return
					}
					if want := tree.KNN(q, k); !sameNeighbors(got, want) {
						errs <- fmt.Errorf("client %d op %d: KNN mismatch: got %v want %v", ci, op, got, want)
						return
					}
				case 1: // batch KNN
					nq := 1 + rng.Intn(6)
					batch := make([]float32, nq*dims)
					for i := range batch {
						batch[i] = rng.Float32()
					}
					k := 1 + rng.Intn(8)
					got, err := c.KNNBatch(batch, k)
					if err != nil {
						errs <- fmt.Errorf("client %d op %d: KNNBatch: %w", ci, op, err)
						return
					}
					for i := 0; i < nq; i++ {
						want := tree.KNN(batch[i*dims:(i+1)*dims], k)
						if !sameNeighbors(got[i], want) {
							errs <- fmt.Errorf("client %d op %d query %d: batch mismatch", ci, op, i)
							return
						}
					}
				case 2: // radius
					r2 := float32(0.01 + 0.02*rng.Float64())
					got, err := c.RadiusSearch(q, r2)
					if err != nil {
						errs <- fmt.Errorf("client %d op %d: RadiusSearch: %w", ci, op, err)
						return
					}
					if want := tree.RadiusSearch(q, r2); !sameNeighbors(got, want) {
						errs <- fmt.Errorf("client %d op %d: radius mismatch: got %d want %d neighbors",
							ci, op, len(got), len(want))
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// rawDial performs the handshake by hand so tests can control exactly what
// bytes hit the wire.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(proto.AppendHello(nil, "")); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.ReadWelcome(nc); err != nil {
		t.Fatal(err)
	}
	return nc
}

// frame encodes one finished frame.
func frame(t *testing.T, encode func(b []byte) []byte) []byte {
	t.Helper()
	b := proto.BeginFrame(nil)
	b = encode(b)
	if err := proto.FinishFrame(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClientDisconnectMidBatch kills a connection whose requests are queued
// but not yet dispatched, in the same batch as a healthy client's; the
// dispatcher must drop the dead connection's responses and keep serving
// everyone else.
func TestClientDisconnectMidBatch(t *testing.T) {
	const dims = 3
	tree, coords := testTree(t, 2000, dims)
	srv, addr, release := startHeldServer(t, tree, Config{})

	nc := rawDial(t, addr)
	for i := 0; i < 4; i++ {
		q := coords[i*dims : (i+1)*dims]
		if _, err := nc.Write(frame(t, func(b []byte) []byte {
			return proto.AppendKNNRequest(b, uint64(i), 5, q, dims)
		})); err != nil {
			t.Fatal(err)
		}
	}
	c, err := panda.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q0 := coords[10*dims : 11*dims]
	first := make(chan error, 1)
	go func() {
		got, err := c.KNN(q0, 4)
		if err == nil && !sameNeighbors(got, tree.KNN(q0, 4)) {
			err = fmt.Errorf("answer differs from the tree")
		}
		first <- err
	}()
	waitUntil(t, "5 queued requests", func() bool { return len(srv.intake) == 5 })
	nc.Close() // disconnect mid-batch
	waitUntil(t, "the server to drop the dead connection", func() bool { return srv.Stats().ActiveConns == 1 })
	release()

	// The healthy client's query shared the dead connection's batch; it and
	// later queries through the same dispatcher must answer correctly.
	if err := <-first; err != nil {
		t.Fatalf("KNN batched with the dead connection: %v", err)
	}
	for i := 1; i < 4; i++ {
		q := coords[(10+i)*dims : (11+i)*dims]
		got, err := c.KNN(q, 4)
		if err != nil {
			t.Fatalf("post-disconnect KNN: %v", err)
		}
		if want := tree.KNN(q, 4); !sameNeighbors(got, want) {
			t.Fatalf("post-disconnect KNN mismatch")
		}
	}
}

// TestShutdownDrainsInflight checks the graceful-drain guarantee: requests
// read off the wire before Shutdown get correct responses even though the
// dispatcher has not taken them off the intake when Shutdown fires.
func TestShutdownDrainsInflight(t *testing.T) {
	const dims = 3
	const inflight = 8
	tree, coords := testTree(t, 2000, dims)
	srv := New(tree, Config{})
	srv.hold = make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := panda.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type res struct {
		i   int
		nb  []panda.Neighbor
		err error
	}
	results := make(chan res, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			nb, err := c.KNN(coords[i*dims:(i+1)*dims], 5)
			results <- res{i, nb, err}
		}(i)
	}
	// Wait until the server has queued all of them, start the drain, and let
	// the dispatcher run only once Shutdown has closed the listener.
	waitUntil(t, "queued requests", func() bool { return len(srv.intake) == inflight })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	if err := <-serveErr; err != ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	close(srv.hold)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < inflight; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("inflight request %d dropped during shutdown: %v", r.i, r.err)
		}
		if want := tree.KNN(coords[r.i*dims:(r.i+1)*dims], 5); !sameNeighbors(r.nb, want) {
			t.Fatalf("inflight request %d: wrong answer after drain", r.i)
		}
	}
	// The connection must be closed once the drain completes.
	if _, err := c.KNN(coords[:dims], 3); err == nil {
		t.Error("KNN after shutdown succeeded, want connection error")
	}
}

// TestNaturalBatching pins that batching needs no timer: requests that
// queue while the dispatcher is busy (held here) form one round's batch,
// split only at MaxBatch, and every answer stays bit-identical to Tree.KNN.
func TestNaturalBatching(t *testing.T) {
	const (
		dims    = 3
		queries = 10
		k       = 8
	)
	tree, coords := testTree(t, 2000, dims)
	for _, tc := range []struct {
		maxBatch int
		rounds   int64
	}{{64, 1}, {8, 2}} {
		t.Run(fmt.Sprintf("max_batch=%d", tc.maxBatch), func(t *testing.T) {
			srv, addr, release := startHeldServer(t, tree, Config{MaxBatch: tc.maxBatch})
			var clients [2]*panda.Client
			for i := range clients {
				c, err := panda.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			errs := make(chan error, queries)
			for i := 0; i < queries; i++ {
				go func(i int) {
					q := coords[i*dims : (i+1)*dims]
					got, err := clients[i%2].KNN(q, k)
					if err == nil && !sameNeighbors(got, tree.KNN(q, k)) {
						err = fmt.Errorf("query %d: answer differs from Tree.KNN", i)
					}
					errs <- err
				}(i)
			}
			waitUntil(t, "queued queries", func() bool { return len(srv.intake) == queries })
			before := srv.Stats().Batches
			release()
			for i := 0; i < queries; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if got := srv.Stats().Batches - before; got != tc.rounds {
				t.Fatalf("%d queued queries took %d dispatch rounds at MaxBatch %d, want %d",
					queries, got, tc.maxBatch, tc.rounds)
			}
		})
	}
}

// TestMalformedRequestGetsError checks the hostile-bytes path: a framed but
// semantically invalid request is answered with KindError, and a garbage
// frame closes the connection without taking the server down.
func TestMalformedRequestGetsError(t *testing.T) {
	const dims = 3
	tree, coords := testTree(t, 500, dims)
	_, addr := startServer(t, tree, Config{})

	// Semantic errors (wrong coordinate count, oversize nq×k) are answered
	// with KindError and the connection stays usable.
	nc := rawDial(t, addr)
	readResp := func(wantID uint64) proto.Response {
		t.Helper()
		payload, err := proto.ReadFrame(nc, nil)
		if err != nil {
			t.Fatalf("reading response %d: %v", wantID, err)
		}
		var resp proto.Response
		if err := proto.ConsumeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != wantID {
			t.Fatalf("got id %d, want %d", resp.ID, wantID)
		}
		return resp
	}
	if _, err := nc.Write(frame(t, func(b []byte) []byte {
		return proto.AppendKNNRequest(b, 7, 5, coords[:dims+1], dims+1)
	})); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(7); resp.Kind != proto.KindError {
		t.Fatalf("wrong-dims request got kind %d, want KindError", resp.Kind)
	}
	// nq×k beyond the response cap: also KindError, also keeps the conn.
	bigNQ := proto.MaxResultNeighbors/proto.MaxK + 1
	big := make([]float32, bigNQ*dims)
	if _, err := nc.Write(frame(t, func(b []byte) []byte {
		return proto.AppendKNNRequest(b, 8, proto.MaxK, big, dims)
	})); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(8); resp.Kind != proto.KindError {
		t.Fatalf("oversize nq×k got kind %d, want KindError", resp.Kind)
	}
	// The same connection still answers valid requests afterwards.
	if _, err := nc.Write(frame(t, func(b []byte) []byte {
		return proto.AppendKNNRequest(b, 9, 3, coords[:dims], dims)
	})); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(9); resp.Kind != proto.KindNeighbors || len(resp.Flat) != 3 {
		t.Fatalf("valid request after semantic errors got kind %d with %d neighbors", resp.Kind, len(resp.Flat))
	}
	nc.Close()

	// Pure garbage frame: connection just closes.
	nc2 := rawDial(t, addr)
	if _, err := nc2.Write(frame(t, func(b []byte) []byte {
		return append(b, 0xFF, 0xFF)
	})); err != nil {
		t.Fatal(err)
	}
	nc2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := proto.ReadFrame(nc2, nil); err == nil {
		t.Error("garbage frame got a response, want close")
	}
	nc2.Close()

	// Server still healthy.
	c, err := panda.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.KNN(coords[:dims], 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.KNN(coords[:dims], 3); !sameNeighbors(got, want) {
		t.Fatal("mismatch after malformed-request handling")
	}
}
