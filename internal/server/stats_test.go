package server

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"panda"
)

// TestServerStats verifies the serving counters: query totals across
// single, batch, and radius requests, batch counts, and the connection
// gauge, surfaced both server-side (Server.Stats) and over the wire
// (Client.Stats).
func TestServerStats(t *testing.T) {
	const dims = 2
	coords := uniformCoords(5000, dims, 3)
	tree, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(tree, Config{MaxBatch: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	c, err := panda.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st0, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st0.Queries != 0 || st0.Batches != 0 || st0.ActiveConns != 1 {
		t.Fatalf("fresh server stats %+v, want zero counters and 1 conn", st0)
	}

	rng := rand.New(rand.NewSource(8))
	q := make([]float32, dims)
	const singles, batchQ = 40, 64
	for i := 0; i < singles; i++ {
		for d := range q {
			q[d] = rng.Float32()
		}
		if i%5 == 4 {
			if _, err := c.RadiusSearch(q, 0.001); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := c.KNN(q, 3); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]float32, batchQ*dims)
	for i := range batch {
		batch[i] = rng.Float32()
	}
	if _, err := c.KNNBatch(batch, 3); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if want := int64(singles + batchQ); st.Queries != want {
		t.Fatalf("Queries = %d, want %d", st.Queries, want)
	}
	if st.Batches < 1 || st.Batches > int64(singles+1) {
		t.Fatalf("Batches = %d, want within [1,%d]", st.Batches, singles+1)
	}
	if want := float64(st.Queries) / float64(st.Batches); st.MeanBatchSize != want {
		t.Fatalf("MeanBatchSize = %v, want %v", st.MeanBatchSize, want)
	}
	if st.ActiveConns != 1 {
		t.Fatalf("ActiveConns = %d, want 1", st.ActiveConns)
	}
	// The wire view must agree with the in-process view (modulo the stats
	// connection itself being counted).
	direct := srv.Stats()
	if direct.Queries != st.Queries || direct.Batches != st.Batches {
		t.Fatalf("Server.Stats %+v disagrees with Client.Stats %+v", direct, st)
	}

	// A second connection moves the gauge.
	c2, err := panda.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.ActiveConns != 2 {
		t.Fatalf("ActiveConns after second dial = %d, want 2", st2.ActiveConns)
	}
}
