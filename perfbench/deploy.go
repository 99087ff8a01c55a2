package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"panda"
	"panda/internal/server"
)

// setupRuns is how many times a run sets up its deployment; the last
// deployment is the one measured. setup_s is the median over the set-ups
// with the least CPU stolen by the host (see quietest), mem_mb the median
// over all.
const setupRuns = 5

// deployment is one set-up instance of a workload: the built tree(s) and,
// for serving workloads, the started servers and connected clients.
type deployment struct {
	tree    *panda.Tree       // single-node tree (batch and serve-*)
	dts     []*panda.DistTree // cluster ranks' distributed trees
	servers []*server.Server
	serving sync.WaitGroup // Serve goroutines
	meshes  []func() error // cluster mesh closers
	clients []*panda.Client
	entry   []int32 // rank each client entered at (-1: single node)

	setup     time.Duration // start to ready, excluding the untimed heap probes
	build     time.Duration // panda.Build, or the slowest rank's Node.Build
	treeBytes uint64        // heap held by the tree(s) alone
}

// heapAfterGC returns the live heap after a forced collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupRepeated deploys setupRuns times, keeping the last deployment, and
// returns per set-up: its time, its build time, the heap the deployment
// held (all in seconds or bytes) and the share of host CPU stolen meanwhile.
func setupRepeated(in *inputs, tr *tracer) (d *deployment, setups, builds, mems, steals []float64, err error) {
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, nil, nil, nil, err
			}
			d = nil
		}
		h0 := heapAfterGC()
		t0 := readTicks()
		d, err = deploy(in, tr)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		steals = append(steals, stealBetween(t0, readTicks()))
		setups = append(setups, d.setup.Seconds())
		builds = append(builds, d.build.Seconds())
		mems = append(mems, float64(heapAfterGC()-h0))
	}
	return d, setups, builds, mems, steals, nil
}

// deploy builds the workload's tree(s) and, for serving workloads, starts
// the servers and connects the clients.
func deploy(in *inputs, tr *tracer) (*deployment, error) {
	if in.sp.ranks > 1 {
		return deployCluster(in, tr)
	}
	d := &deployment{}
	h0 := heapAfterGC()
	start := time.Now()
	tree, err := panda.Build(in.coords, in.dims, nil, &panda.BuildOptions{Threads: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	d.build = time.Since(start)
	tr.record("panda.Build", -1, start, d.build)
	d.tree = tree
	d.treeBytes = heapAfterGC() - h0
	d.setup = d.build
	if in.sp.batch > 0 {
		return d, nil
	}

	start = time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.serve(server.New(tree, server.Config{}), ln)
	for c := 0; c < in.sp.conns; c++ {
		cl, err := panda.Dial(ln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.clients = append(d.clients, cl)
		d.entry = append(d.entry, -1)
	}
	d.setup += time.Since(start)
	tr.record("server.start+dial", -1, start, time.Since(start))
	return d, nil
}

// deployCluster joins the ranks over a loopback TCP mesh, builds the
// distributed tree (each rank contributing a round-robin stripe of the
// points, ids = global indices), starts one cluster server per rank and
// connects the clients at different ranks.
func deployCluster(in *inputs, tr *tracer) (*deployment, error) {
	ranks := in.sp.ranks
	meshLns, meshAddrs, err := listenN(ranks)
	if err != nil {
		return nil, err
	}
	serveLns, serveAddrs, err := listenN(ranks)
	if err != nil {
		closeAll(meshLns)
		return nil, err
	}
	d := &deployment{dts: make([]*panda.DistTree, ranks), meshes: make([]func() error, ranks)}
	builds := make([]time.Duration, ranks)
	errs := make([]error, ranks)
	h0 := heapAfterGC()
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			node, closeMesh, err := panda.JoinTCPListener(r, meshLns[r], meshAddrs, 1)
			if err != nil {
				errs[r] = fmt.Errorf("rank %d join: %w", r, err)
				return
			}
			d.meshes[r] = closeMesh
			t0 := time.Now()
			d.dts[r], errs[r] = node.Build(in.shards[r], in.dims, in.shardIDs[r], nil)
			builds[r] = time.Since(t0)
			tr.record("Node.Build", int32(r), t0, builds[r])
		}(r)
	}
	wg.Wait()
	dist := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		closeAll(serveLns)
		return nil, errors.Join(err, d.close())
	}
	for _, b := range builds {
		d.build = max(d.build, b)
	}
	d.treeBytes = heapAfterGC() - h0

	start = time.Now()
	for r := 0; r < ranks; r++ {
		srv, err := server.NewCluster(d.dts[r], server.ClusterConfig{ServeAddrs: serveAddrs, TotalPoints: int64(in.sp.points)})
		if err != nil {
			closeAll(serveLns[r:])
			return nil, errors.Join(err, d.close())
		}
		d.serve(srv, serveLns[r])
	}
	for c := 0; c < in.sp.conns; c++ {
		r := c * ranks / in.sp.conns
		cl, err := panda.Dial(serveAddrs[r])
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.clients = append(d.clients, cl)
		d.entry = append(d.entry, int32(r))
	}
	d.setup = dist + time.Since(start)
	tr.record("server.NewCluster+dial", -1, start, time.Since(start))
	return d, nil
}

// serve starts srv on ln in a goroutine that close waits for.
func (d *deployment) serve(srv *server.Server, ln net.Listener) {
	d.servers = append(d.servers, srv)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
}

// close disconnects the clients, drains the servers, waits for their Serve
// goroutines and closes the cluster mesh.
func (d *deployment) close() error {
	var errs []error
	for _, c := range d.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range d.servers {
		if err := s.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server shutdown: %w", err))
		}
	}
	d.serving.Wait()
	for _, m := range d.meshes {
		if m != nil {
			m()
		}
	}
	return errors.Join(errs...)
}

func listenN(n int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns[:i])
			return nil, nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// stripe deals the points round-robin over ranks, ids = global indices, so
// cluster answers compare directly with a tree over all points.
func stripe(coords []float32, dims, ranks int) ([][]float32, [][]int64) {
	n := len(coords) / dims
	shards := make([][]float32, ranks)
	ids := make([][]int64, ranks)
	for i := 0; i < n; i++ {
		r := i % ranks
		shards[r] = append(shards[r], coords[i*dims:(i+1)*dims]...)
		ids[r] = append(ids[r], int64(i))
	}
	return shards, ids
}
