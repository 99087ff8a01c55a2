// Serving walkthrough: start the PANDA serving layer in-process on a
// loopback port, connect a handful of concurrent clients, and let dynamic
// micro-batching turn their independent single queries into batched engine
// calls. The same server is what cmd/panda-serve runs standalone; the same
// client is what any external process would use via panda.Dial.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"panda"
	"panda/internal/server"
)

func main() {
	const (
		n       = 200_000
		dims    = 3
		clients = 16
		queries = 200 // per client
		k       = 5
	)
	coords, _, _, err := panda.GenerateDataset("uniform", n, 42)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := panda.Build(coords, dims, nil, &panda.BuildOptions{Threads: 4})
	if err != nil {
		log.Fatal(err)
	}

	// Start the server on a loopback port; each dispatch round takes up to
	// 64 of the queries already queued, without waiting for more.
	srv := server.New(tree, server.Config{MaxBatch: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	fmt.Printf("serving %d points (%d-d) on %s\n", tree.Len(), dims, addr)

	// Each client issues single-query KNN calls from its own goroutine —
	// the worst case for a batched engine, and exactly what the dispatcher
	// coalesces back into KNNBatchFlat calls.
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := panda.Dial(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer cl.Close()
			q := make([]float32, dims)
			for i := 0; i < queries; i++ {
				base := ((c*queries + i) * dims) % (n * dims)
				copy(q, coords[base:base+dims])
				nbrs, err := cl.KNN(q, k)
				if err != nil {
					log.Fatal(err)
				}
				if len(nbrs) != k || nbrs[0].Dist2 != 0 {
					log.Fatalf("client %d query %d: bad answer %v", c, i, nbrs)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := clients * queries
	fmt.Printf("%d clients × %d single-query KNN calls: %d queries in %v (%.0f µs/query end-to-end)\n",
		clients, queries, total, elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/float64(total))

	// One client can also ship an explicit batch in a single request.
	cl, err := panda.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	batch := coords[:50*dims]
	res, err := cl.KNNBatch(batch, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch request: %d queries answered, first neighbor of query 0 is id %d at d²=%g\n",
		len(res), res[0][0].ID, res[0][0].Dist2)

	nbrs, err := cl.RadiusSearch(coords[:dims], 0.001)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("radius search: %d points within d²<0.001 of point 0\n", len(nbrs))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained and shut down")
}
