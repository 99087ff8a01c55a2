// Cluster-serving walkthrough: a 4-rank sharded PANDA cluster serving
// external clients — the paper's distributed query pipeline (owner routing,
// local KNN, bounded remote-candidate exchange, top-k merge) driven by
// ordinary TCP clients instead of SPMD collectives.
//
// For demonstration the four "ranks" run as goroutines in this process,
// but everything between them is real networking: they join a loopback TCP
// mesh (panda.JoinTCPListener) to build the distributed tree, then each
// rank serves the client protocol on its own port and the ranks forward
// queries and exchange remote candidates over those ports. Running the
// ranks as separate OS processes instead is exactly `panda-serve -cluster`
// (see cmd/panda-serve).
//
//	go run ./examples/cluster-serving
//
// The example connects one client per rank, sends a mixed KNN/radius
// workload, and cross-checks every answer bit-for-bit against a single
// tree built over the union of the shards.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"panda"
	"panda/internal/server"
)

func main() {
	const (
		n     = 100_000
		dims  = 3
		ranks = 4
		k     = 5
	)
	coords, _, _, err := panda.GenerateDataset("uniform", n, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Reference: one tree over the whole dataset. Neighbor ids in the
	// cluster are global point indices, so answers must match exactly.
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	// --- Build phase: every rank joins the mesh and builds its shard. ---
	meshLns := make([]net.Listener, ranks)
	meshAddrs := make([]string, ranks)
	for r := range meshLns {
		if meshLns[r], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		meshAddrs[r] = meshLns[r].Addr().String()
	}
	dts := make([]*panda.DistTree, ranks)
	closers := make([]func() error, ranks)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			node, closeMesh, err := panda.JoinTCPListener(r, meshLns[r], meshAddrs, 1)
			if err != nil {
				log.Fatalf("rank %d: join: %v", r, err)
			}
			closers[r] = closeMesh
			// Shard: stripe points round-robin, ids = global indices.
			var shard []float32
			var ids []int64
			for i := r; i < n; i += ranks {
				shard = append(shard, coords[i*dims:(i+1)*dims]...)
				ids = append(ids, int64(i))
			}
			if dts[r], err = node.Build(shard, dims, ids, nil); err != nil {
				log.Fatalf("rank %d: build: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	fmt.Printf("built %d-rank distributed tree over %d points in %v\n",
		ranks, n, time.Since(start).Round(time.Millisecond))
	for r, dt := range dts {
		fmt.Printf("  rank %d owns %d points (global tree: %d levels)\n", r, dt.LocalLen(), dt.GlobalLevels())
	}

	// --- Serve phase: every rank accepts external clients. ---
	serveAddrs := make([]string, ranks)
	serveLns := make([]net.Listener, ranks)
	for r := range serveLns {
		if serveLns[r], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		serveAddrs[r] = serveLns[r].Addr().String()
	}
	servers := make([]*server.Server, ranks)
	for r := 0; r < ranks; r++ {
		servers[r], err = server.NewCluster(dts[r], server.ClusterConfig{
			Config:      server.Config{MaxBatch: 64},
			ServeAddrs:  serveAddrs,
			TotalPoints: n,
		})
		if err != nil {
			log.Fatal(err)
		}
		go servers[r].Serve(serveLns[r])
	}
	fmt.Printf("serving on %v\n", serveAddrs)

	// --- Client workload: one client per rank, mixed KNN + radius. ---
	const perClient = 1000
	start = time.Now()
	var checked, forwarded int64
	var mu sync.Mutex
	for c := 0; c < ranks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := panda.Dial(serveAddrs[c:]...) // any rank answers
			if err != nil {
				log.Fatalf("client %d: %v", c, err)
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			q := make([]float32, dims)
			var myChecked, myForwarded int64
			for i := 0; i < perClient; i++ {
				for d := range q {
					q[d] = rng.Float32()
				}
				if i%10 == 9 {
					r2 := rng.Float32() * 0.001
					got, err := cl.RadiusSearch(q, r2)
					if err != nil {
						log.Fatalf("client %d: radius: %v", c, err)
					}
					want := ref.RadiusSearch(q, r2)
					if !same(got, want) {
						log.Fatalf("client %d: radius mismatch", c)
					}
				} else {
					got, err := cl.KNN(q, k)
					if err != nil {
						log.Fatalf("client %d: KNN: %v", c, err)
					}
					if !same(got, ref.KNN(q, k)) {
						log.Fatalf("client %d: KNN mismatch at query %d", c, i)
					}
					if dts[0].Owner(q) != c {
						myForwarded++
					}
				}
				myChecked++
			}
			mu.Lock()
			checked += myChecked
			forwarded += myForwarded
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("%d queries answered and verified bit-identical to the union tree (%d forwarded to owner ranks)\n",
		checked, forwarded)
	fmt.Printf("%.1f µs/query end-to-end across the cluster\n",
		float64(elapsed.Microseconds())/float64(checked))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range servers {
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
	}
	for _, cl := range closers {
		cl()
	}
	fmt.Println("cluster drained; bye")
}

func same(a, b []panda.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
