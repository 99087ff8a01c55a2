// Failover walkthrough: an R=2 replicated PANDA serving cluster surviving
// the loss of a rank with zero wrong answers and zero client-visible
// errors, then healing itself.
//
// The demo builds a 4-rank distributed tree, persists it as a replicated
// cluster snapshot (each shard's file is assigned to its own rank plus one
// cyclic successor in the manifest), warm-starts a serving cluster from the
// directory, and then kills one rank mid-workload. Queries owned by the
// dead rank's shard fail over to its replica — the replica mmaps the same
// snapshot bytes, so every answer stays bit-identical to a single tree over
// the whole dataset. In the background the surviving ranks notice the death
// by heartbeat, and the next rank in the placement chain streams itself a
// copy of the under-replicated shard (chunked, CRC-checked), restoring the
// replication factor without a restart.
//
// For demonstration the "ranks" run as goroutines in this process, but
// everything between them is real networking over loopback TCP. The same
// flow as separate OS processes is `panda-serve -cluster -snapshot dir`
// (replication is in the manifest) plus `panda-serve -cluster -join` for
// replacement ranks; see cmd/panda-serve.
//
//	go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"panda"
	"panda/internal/server"
)

func main() {
	const (
		n      = 60_000
		dims   = 3
		ranks  = 4
		k      = 5
		victim = 1
	)
	coords, _, _, err := panda.GenerateDataset("uniform", n, 42)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	// --- Build once, snapshot with replication. ---
	dir, err := os.MkdirTemp("", "panda-failover-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dts, closers := buildCluster(coords, dims, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := dts[r].WriteSnapshotReplicated(dir, 2); err != nil {
				log.Fatalf("rank %d: snapshot: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	for _, cl := range closers {
		cl()
	}
	for _, dt := range dts {
		dt.Close()
	}
	fmt.Printf("wrote R=2 replicated snapshot (%d ranks) into %s\n", ranks, dir)

	// --- Warm-start a replicated serving cluster from the directory. ---
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
		cs, err := panda.OpenClusterSnapshotReplicated(dir, r)
		if err != nil {
			log.Fatalf("rank %d: open: %v", r, err)
		}
		defer cs.Close()
		servers[r], err = server.NewCluster(cs.Tree, server.ClusterConfig{
			Config:            server.Config{MaxBatch: 64},
			ServeAddrs:        serveAddrs,
			TotalPoints:       n,
			ReplicaSets:       cs.ReplicaSets,
			Replicas:          cs.Replicas,
			SnapshotDir:       dir,
			HeartbeatInterval: 100 * time.Millisecond,
			FailThreshold:     2,
		})
		if err != nil {
			log.Fatal(err)
		}
		go servers[r].Serve(serveLns[r])
		fmt.Printf("  rank %d serves its own shard + a replica of shard %d\n", r, (r+ranks-1)%ranks)
	}

	// --- Workload against the survivors; kill the victim mid-flight. ---
	fmt.Printf("\nrunning verified workload, killing rank %d mid-flight...\n", victim)
	killed := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		// Kill -9 equivalent: no drain, connections just die.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		servers[victim].Shutdown(ctx)
		close(killed)
	}()

	const perClient = 4000
	start := time.Now()
	var checked int64
	var mu sync.Mutex
	for c := 0; c < ranks; c++ {
		if c == victim {
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := panda.Dialer{Retry: panda.DefaultRetry}.Dial(serveAddrs[c])
			if err != nil {
				log.Fatalf("client %d: %v", c, err)
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			q := make([]float32, dims)
			for i := 0; i < perClient; i++ {
				for d := range q {
					q[d] = rng.Float32()
				}
				got, err := cl.KNN(q, k)
				if err != nil {
					log.Fatalf("client %d query %d: %v (failover must be invisible)", c, i, err)
				}
				if !same(got, ref.KNN(q, k)) {
					log.Fatalf("client %d query %d: answer differs from the single tree", c, i)
				}
			}
			mu.Lock()
			checked += perClient
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	<-killed
	fmt.Printf("%d queries verified bit-identical across the kill in %v — zero errors\n",
		checked, time.Since(start).Round(time.Millisecond))

	// --- The cluster heals: the next rank in the chain pulls the shard. ---
	puller := (victim + 2) % ranks
	source := (victim + 1) % ranks
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := servers[source].Stats()
		if st.ReplicationBytes > 0 {
			fmt.Printf("re-replication: rank %d streamed %d snapshot bytes of shard %d to rank %d\n",
				source, st.ReplicationBytes, victim, puller)
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("re-replication did not run")
		}
		time.Sleep(50 * time.Millisecond)
	}
	for r, srv := range servers {
		if r == victim {
			continue
		}
		st := srv.Stats()
		fmt.Printf("  rank %d: %d queries, %d failovers, %d peer failures\n", r, st.Queries, st.Failovers, st.PeerFailures)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for r, srv := range servers {
		if r == victim {
			continue
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
	}
	fmt.Println("survivors drained; bye")
}

// buildCluster builds the distributed tree over a loopback mesh, striping
// points round-robin with global indices as ids.
func buildCluster(coords []float32, dims, ranks int) ([]*panda.DistTree, []func() error) {
	n := len(coords) / dims
	meshLns := make([]net.Listener, ranks)
	meshAddrs := make([]string, ranks)
	var err error
	for r := range meshLns {
		if meshLns[r], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		meshAddrs[r] = meshLns[r].Addr().String()
	}
	dts := make([]*panda.DistTree, ranks)
	closers := make([]func() error, ranks)
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
	return dts, closers
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
