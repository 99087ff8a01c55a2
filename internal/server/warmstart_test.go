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
)

// TestWarmStartSingleServerE2E serves a snapshot-opened tree (the mmap
// path) and verifies a 10k-query mixed KNN/radius workload over TCP is
// bit-identical to the freshly built tree the snapshot was written from.
func TestWarmStartSingleServerE2E(t *testing.T) {
	const (
		dims = 3
		n    = 20000
	)
	coords := uniformCoords(n, dims, 21)
	built, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/tree.pnds"
	if err := built.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	warm, err := panda.OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer warm.Close()
	warm.SetThreads(4)

	srv := New(warm, Config{MaxBatch: 32})
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

	const clients = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := panda.Dial(ln.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(500 + ci)))
			q := make([]float32, dims)
			batch := make([]float32, 32*dims)
			sent := 0
			for sent < 2500 {
				switch {
				case sent%100 == 0:
					for i := range batch {
						batch[i] = rng.Float32()
					}
					k := 1 + rng.Intn(12)
					got, err := c.KNNBatch(batch, k)
					if err != nil {
						errCh <- err
						return
					}
					for qi := range got {
						if want := built.KNN(batch[qi*dims:(qi+1)*dims], k); !sameNeighbors(got[qi], want) {
							errCh <- fmt.Errorf("client %d: batch KNN differs from built tree", ci)
							return
						}
					}
					sent += 32
				case sent%7 == 3:
					for d := range q {
						q[d] = rng.Float32()
					}
					r2 := rng.Float32() * 0.002
					got, err := c.RadiusSearch(q, r2)
					if err != nil {
						errCh <- err
						return
					}
					if want := built.RadiusSearch(q, r2); !sameNeighbors(got, want) {
						errCh <- fmt.Errorf("client %d: radius differs from built tree", ci)
						return
					}
					sent++
				default:
					for d := range q {
						q[d] = rng.Float32()
					}
					got, err := c.KNN(q, 5)
					if err != nil {
						errCh <- err
						return
					}
					if want := built.KNN(q, 5); !sameNeighbors(got, want) {
						errCh <- fmt.Errorf("client %d: KNN differs from built tree", ci)
						return
					}
					sent++
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestWarmStartClusterE2E builds a 4-rank cluster over a real TCP mesh,
// snapshots every rank, then warm-starts a second 4-rank serving cluster
// from the snapshot directory alone — no mesh, no SPMD build — and verifies
// a 10k-query mixed workload through every rank is bit-identical to a
// single tree over the union of the shards.
func TestWarmStartClusterE2E(t *testing.T) {
	const (
		dims = 3
		n    = 12000
		p    = 4
	)
	coords := uniformCoords(n, dims, 31)
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, coords, dims, p, Config{MaxBatch: 48})

	// Persist every rank's shard (collective: the cluster total rides an
	// all-reduce over the mesh).
	dir := t.TempDir()
	var wg sync.WaitGroup
	werrs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			werrs[r] = tc.dts[r].WriteSnapshot(dir)
		}(r)
	}
	wg.Wait()
	for r, err := range werrs {
		if err != nil {
			t.Fatalf("rank %d WriteSnapshot: %v", r, err)
		}
	}

	// A rank's shard file must not be openable as a standalone tree — it
	// holds 1/P of the data and would answer silently wrong.
	if _, err := panda.OpenSnapshot(dir + "/rank-0.pnds"); err == nil {
		t.Fatal("OpenSnapshot accepted a cluster rank file as a single tree")
	}

	// Warm-start a fresh serving cluster from the directory alone.
	warm := make([]*panda.DistTree, p)
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for r := 0; r < p; r++ {
		warm[r], err = panda.OpenClusterSnapshot(dir, r)
		if err != nil {
			t.Fatalf("rank %d OpenClusterSnapshot: %v", r, err)
		}
		defer warm[r].Close()
		if warm[r].Rank() != r || warm[r].Ranks() != p || warm[r].Dims() != dims {
			t.Fatalf("rank %d restored as rank %d of %d (%d dims)", r, warm[r].Rank(), warm[r].Ranks(), warm[r].Dims())
		}
		if warm[r].TotalPoints() != n {
			t.Fatalf("rank %d restored total %d, want %d", r, warm[r].TotalPoints(), n)
		}
		if _, _, err := warm[r].Query(coords[:dims], nil, 1); err == nil {
			t.Fatalf("rank %d: SPMD Query on a restored tree did not error", r)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	servers := make([]*Server, p)
	for r := 0; r < p; r++ {
		servers[r], err = NewCluster(warm[r], ClusterConfig{
			Config:      Config{MaxBatch: 48},
			ServeAddrs:  addrs,
			TotalPoints: warm[r].TotalPoints(),
		})
		if err != nil {
			t.Fatal(err)
		}
		go servers[r].Serve(lns[r])
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, srv := range servers {
			srv.Shutdown(ctx)
		}
	}()

	// Ownership must replicate exactly across restored ranks.
	rngO := rand.New(rand.NewSource(1))
	qo := make([]float32, dims)
	for i := 0; i < 200; i++ {
		for d := range qo {
			qo[d] = rngO.Float32() * 1.2
		}
		owner := tc.dts[0].Owner(qo)
		for r := 0; r < p; r++ {
			if got := warm[r].Owner(qo); got != owner {
				t.Fatalf("restored rank %d says owner(%v)=%d, built cluster says %d", r, qo, got, owner)
			}
		}
	}

	var cwg sync.WaitGroup
	errCh := make(chan error, p)
	for ci := 0; ci < p; ci++ {
		cwg.Add(1)
		go func(ci int) {
			defer cwg.Done()
			c, err := panda.Dial(addrs[ci])
			if err != nil {
				errCh <- fmt.Errorf("client %d: dial warm rank: %w", ci, err)
				return
			}
			defer c.Close()
			if c.Len() != n {
				errCh <- fmt.Errorf("client %d: welcome len %d, want %d", ci, c.Len(), n)
				return
			}
			rng := rand.New(rand.NewSource(int64(900 + ci)))
			queries := make([]float32, 64*dims)
			for round := 0; round < 40; round++ {
				for i := range queries {
					queries[i] = rng.Float32() * 1.1
				}
				k := 1 + rng.Intn(10)
				got, err := c.KNNBatch(queries, k)
				if err != nil {
					errCh <- fmt.Errorf("client %d round %d: %w", ci, round, err)
					return
				}
				for qi := range got {
					if want := ref.KNN(queries[qi*dims:(qi+1)*dims], k); !sameNeighbors(got[qi], want) {
						errCh <- fmt.Errorf("client %d round %d query %d: warm cluster differs from union tree", ci, round, qi)
						return
					}
				}
				q := queries[:dims]
				r2 := rng.Float32() * 0.01
				gotR, err := c.RadiusSearch(q, r2)
				if err != nil {
					errCh <- fmt.Errorf("client %d round %d: radius: %w", ci, round, err)
					return
				}
				if want := ref.RadiusSearch(q, r2); !sameNeighbors(gotR, want) {
					errCh <- fmt.Errorf("client %d round %d: warm radius differs from union tree", ci, round)
					return
				}
			}
		}(ci)
	}
	cwg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
