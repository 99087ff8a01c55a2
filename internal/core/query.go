package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/knnheap"
	"panda/internal/par"
	"panda/internal/simtime"
	"panda/internal/wire"
)

// Query phase names (Figure 5(c)'s breakdown categories; the non-overlapped
// communication share is derived from these phases' comm accounting).
const (
	PhaseFindOwner      = "find owner"
	PhaseLocalKNN       = "local KNN"
	PhaseIdentifyRemote = "identify remote nodes"
	PhaseRemoteKNN      = "remote KNN"
)

// DefaultBatchSize is the query batching granularity (§III-B: "batching of
// queries ... ensures load balance among nodes and better throughput").
const DefaultBatchSize = 4096

// QueryOptions configures a distributed query wave.
type QueryOptions struct {
	// K is the neighbor count (required, ≥ 1).
	K int
	// BatchSize bounds how many of a rank's queries enter each pipelined
	// round; 0 means DefaultBatchSize.
	BatchSize int
}

// Result is the answer for one query: its caller-provided id and its k
// nearest neighbors sorted by ascending distance.
type Result struct {
	QID       int64
	Neighbors []kdtree.Neighbor
}

// QueryTrace captures the distributed-execution counters the paper reports
// (§V-A3): how many queries left their owner rank, total remote requests,
// and remote neighbors that survived the merge.
type QueryTrace struct {
	Queries            int64 // queries this rank originated
	Owned              int64 // queries this rank owned (domain contains q)
	SentRemote         int64 // owned queries forwarded to ≥1 remote rank
	RemoteRequests     int64 // total (query, remote rank) pairs sent
	RemoteNeighborsWon int64 // remote candidates that made the final top-k
}

// QueryBatch answers k-NN for this rank's query shard (SPMD: every rank
// calls it; all ranks must use identical options). qids identify queries in
// the returned Results and may be nil (index order). Results are returned
// in the input order of queries.
//
// Implementation follows §III-B steps 1–5 with query batching: every round
// moves at most BatchSize of each rank's queries through the
// route → local-KNN → remote-fanout → merge → return pipeline, and
// communication phases are marked overlapped for the simulated-time model
// (the software-pipelining optimization).
func (dt *DistTree) QueryBatch(queries geom.Points, qids []int64, opts QueryOptions) ([]Result, *QueryTrace, error) {
	if opts.K < 1 {
		return nil, nil, fmt.Errorf("core: K must be ≥ 1, got %d", opts.K)
	}
	if dt.comm == nil {
		return nil, nil, fmt.Errorf("core: QueryBatch is an SPMD collective; a snapshot-restored tree has no communicator (use the serving entry points)")
	}
	if queries.Dims != dt.dims && queries.Len() > 0 {
		return nil, nil, fmt.Errorf("core: query dims %d != tree dims %d", queries.Dims, dt.dims)
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if qids == nil {
		qids = make([]int64, queries.Len())
		for i := range qids {
			qids[i] = int64(i)
		}
	} else if len(qids) != queries.Len() {
		return nil, nil, fmt.Errorf("core: %d qids for %d queries", len(qids), queries.Len())
	}

	c := dt.comm
	nLocal := queries.Len()
	trace := &QueryTrace{Queries: int64(nLocal)}

	// Align the pipeline depth across ranks, and agree on input validity in
	// the same collective: a non-finite coordinate (NaN disables every
	// pruning comparison) must make EVERY rank return the error together —
	// a rank bailing out locally while its peers enter the query collectives
	// would deadlock the cluster.
	invalid := int64(0)
	if !geom.AllFinite(queries.Coords) {
		invalid = 1
	}
	agg := c.AllReduceInt64([]int64{int64(nLocal), invalid}, "max")
	if agg[1] != 0 {
		return nil, nil, fmt.Errorf("core: non-finite query coordinate on at least one rank (NaN coordinates disable kd-tree pruning)")
	}
	maxN := agg[0]
	rounds := int((maxN + int64(opts.BatchSize) - 1) / int64(opts.BatchSize))

	// Overlapped communication phases (software pipelining).
	c.Phase(PhaseFindOwner).Overlapped = true
	c.Phase(PhaseRemoteKNN).Overlapped = true

	byQID := make(map[int64]int, nLocal)
	for i, id := range qids {
		byQID[id] = i
	}
	results := make([]Result, nLocal)
	eng := newQueryEngine(dt, opts.K)

	for round := 0; round < rounds; round++ {
		lo := round * opts.BatchSize
		hi := lo + opts.BatchSize
		if lo > nLocal {
			lo = nLocal
		}
		if hi > nLocal {
			hi = nLocal
		}
		returned := eng.runRound(queries, qids, lo, hi, trace)
		for _, res := range returned {
			i, ok := byQID[res.QID]
			if !ok {
				return nil, nil, fmt.Errorf("core: rank %d received result for unknown qid %d", c.Rank(), res.QID)
			}
			results[i] = res
		}
	}
	return results, trace, nil
}

// queryEngine holds per-wave state reused across rounds.
type queryEngine struct {
	dt *DistTree
	k  int

	searchers []*kdtree.Searcher  // one per worker, reused across rounds
	nbrBufs   [][]kdtree.Neighbor // per-worker result arenas
	pool      *par.Pool           // real workers for the identify-remote stage
}

func newQueryEngine(dt *DistTree, k int) *queryEngine {
	t := dt.comm.Threads()
	e := &queryEngine{
		dt:        dt,
		k:         k,
		searchers: make([]*kdtree.Searcher, t),
		nbrBufs:   make([][]kdtree.Neighbor, t),
		pool:      par.NewPool(t),
	}
	for i := range e.searchers {
		e.searchers[i] = dt.Local.NewSearcher()
		e.nbrBufs[i] = make([]kdtree.Neighbor, 0, k)
	}
	return e
}

// searchChunk is the unit of dynamic work assignment in the local-scan
// stages: workers claim runs of queries from a shared atomic cursor, so a
// skewed batch (a few queries landing in dense regions) cannot idle the
// other workers the way the previous fixed striding could.
const searchChunk = 16

// searchParallel runs fn(i, worker) for every item with chunked dynamic
// work assignment over per-worker searchers, then charges each item's
// returned work stats to simulated thread i%threads — the same mapping the
// fixed-striding scheduler produced — after the parallel section. Detaching
// the metering from the scheduling keeps simulated times bit-deterministic
// no matter which real worker ran which query.
func (e *queryEngine) searchParallel(n int, pm *simtime.PhaseMeter, fn func(item, worker int) kdtree.QueryStats) {
	if n == 0 {
		return
	}
	threads := len(e.searchers)
	stats := make([]kdtree.QueryStats, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > threads {
		workers = threads
	}
	if nc := (n + searchChunk - 1) / searchChunk; workers > nc {
		workers = nc
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			stats[i] = fn(i, 0)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					lo := int(cursor.Add(1)-1) * searchChunk
					if lo >= n {
						return
					}
					hi := lo + searchChunk
					if hi > n {
						hi = n
					}
					for i := lo; i < hi; i++ {
						stats[i] = fn(i, w)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	dims := e.dt.dims
	for i := range stats {
		m := pm.Thread(i % threads)
		m.Add(simtime.KNodeVisit, stats[i].NodesVisited)
		m.Add(simtime.KDist, stats[i].PointsScanned*int64(dims))
		m.Add(simtime.KHeap, stats[i].HeapPushes)
	}
}

// ownedQuery is a query routed to this rank (the domain owner).
type ownedQuery struct {
	qid    int64
	origin int32
	coords []float32
	local  []knnheap.Item // owner-local candidates
	r2     float32        // pruning bound: dist² to kth local candidate
	remote []knnheap.Item // merged remote candidates
}

// runRound pushes local queries [lo,hi) through one pipelined round and
// returns the finished results that belong to this rank.
func (e *queryEngine) runRound(queries geom.Points, qids []int64, lo, hi int, trace *QueryTrace) []Result {
	dt, c, k := e.dt, e.dt.comm, e.k
	p := c.Size()
	rank := c.Rank()
	dims := dt.dims
	threads := c.Threads()

	// Step 1 — find owner and route (§III-B step 1).
	pm := c.Phase(PhaseFindOwner)
	routeBufs := make([][]byte, p)
	counts := make([]int, p)
	owners := make([]int, hi-lo)
	for i := lo; i < hi; i++ {
		owners[i-lo] = dt.Global.Owner(queries.At(i), pm.Thread((i-lo)%threads))
		counts[owners[i-lo]]++
	}
	for r := range routeBufs {
		if counts[r] > 0 {
			routeBufs[r] = wire.AppendUint32(nil, uint32(counts[r]))
		}
	}
	for i := lo; i < hi; i++ {
		r := owners[i-lo]
		routeBufs[r] = wire.AppendInt64(routeBufs[r], qids[i])
		routeBufs[r] = append(routeBufs[r], coordBytes(queries.At(i))...)
	}
	routed := c.AllToAll(routeBufs)

	// Decode owned queries (deterministic order: by origin rank).
	var owned []*ownedQuery
	for src := 0; src < p; src++ {
		part := routed[src]
		if len(part) == 0 {
			continue
		}
		r := wire.NewDecoder(part)
		cnt := int(r.Uint32())
		for j := 0; j < cnt; j++ {
			q := &ownedQuery{qid: r.Int64(), origin: int32(src), coords: make([]float32, dims)}
			for d := 0; d < dims; d++ {
				q.coords[d] = r.Float32()
			}
			owned = append(owned, q)
		}
		mustDecode(&r, "routed queries")
	}
	trace.Owned += int64(len(owned))

	// Step 2 — local KNN at the owner (§III-B step 2), parallel over the
	// batch with dynamic chunk assignment; searchers append into the
	// per-worker arena and only the exact-size retained copy allocates.
	lpm := c.Phase(PhaseLocalKNN)
	e.searchParallel(len(owned), lpm, func(i, w int) kdtree.QueryStats {
		q := owned[i]
		nbrs, st := e.searchers[w].Search(q.coords, k, kdtree.Inf2, e.nbrBufs[w][:0])
		e.nbrBufs[w] = nbrs[:0]
		q.local = make([]knnheap.Item, len(nbrs))
		for j, nb := range nbrs {
			q.local[j] = knnheap.Item{Dist2: nb.Dist2, ID: nb.ID}
		}
		if len(nbrs) == k {
			q.r2 = nbrs[k-1].Dist2
		} else {
			q.r2 = kdtree.Inf2
		}
		return st
	})

	// Step 3 — identify remote ranks within r' (§III-B step 3).
	ipm := c.Phase(PhaseIdentifyRemote)
	// Thread t's task handles items t, t+T, … and charges only meter t, so
	// the meters match a sequential pass whichever worker runs the task.
	remoteTargets := make([][]int, len(owned))
	e.pool.ForEach(threads, func(t int) {
		for i := t; i < len(owned); i += threads {
			q := owned[i]
			remoteTargets[i] = dt.Global.RanksWithin(q.coords, q.r2, rank, ipm.Thread(t), nil)
		}
	})
	reqBufs := make([][]byte, p)
	reqCounts := make([]int, p)
	for i := range owned {
		if len(remoteTargets[i]) > 0 {
			trace.SentRemote++
		}
		for _, r := range remoteTargets[i] {
			reqCounts[r]++
			trace.RemoteRequests++
		}
	}
	for r := range reqBufs {
		if reqCounts[r] > 0 {
			reqBufs[r] = wire.AppendUint32(nil, uint32(reqCounts[r]))
		}
	}
	for i, q := range owned {
		for _, r := range remoteTargets[i] {
			reqBufs[r] = wire.AppendInt64(reqBufs[r], q.qid)
			reqBufs[r] = wire.AppendFloat32(reqBufs[r], q.r2)
			reqBufs[r] = append(reqBufs[r], coordBytes(q.coords)...)
		}
	}

	// Step 4 — remote KNN with early pruning (§III-B step 4).
	rpm := c.Phase(PhaseRemoteKNN)
	reqs := c.AllToAll(reqBufs)
	type remoteReq struct {
		qid    int64
		origin int32
		r2     float32
		coords []float32
	}
	var incoming []remoteReq
	for src := 0; src < p; src++ {
		part := reqs[src]
		if len(part) == 0 {
			continue
		}
		r := wire.NewDecoder(part)
		cnt := int(r.Uint32())
		for j := 0; j < cnt; j++ {
			rq := remoteReq{qid: r.Int64(), origin: int32(src)}
			rq.r2 = r.Float32()
			rq.coords = make([]float32, dims)
			for d := 0; d < dims; d++ {
				rq.coords[d] = r.Float32()
			}
			incoming = append(incoming, rq)
		}
		mustDecode(&r, "remote requests")
	}
	remoteAnswers := make([][]kdtree.Neighbor, len(incoming))
	e.searchParallel(len(incoming), rpm, func(i, w int) kdtree.QueryStats {
		nbrs, st := e.searchers[w].Search(incoming[i].coords, k, incoming[i].r2, e.nbrBufs[w][:0])
		e.nbrBufs[w] = nbrs[:0]
		if len(nbrs) > 0 {
			remoteAnswers[i] = append([]kdtree.Neighbor(nil), nbrs...)
		}
		return st
	})
	respBufs := make([][]byte, p)
	respCounts := make([]int, p)
	for i := range incoming {
		if len(remoteAnswers[i]) > 0 {
			respCounts[incoming[i].origin]++
		}
	}
	for r := range respBufs {
		if respCounts[r] > 0 {
			respBufs[r] = wire.AppendUint32(nil, uint32(respCounts[r]))
		}
	}
	for i, rq := range incoming {
		if len(remoteAnswers[i]) == 0 {
			continue // nothing closer than r' here; skip the reply payload
		}
		b := respBufs[rq.origin]
		b = wire.AppendInt64(b, rq.qid)
		b = wire.AppendUint32(b, uint32(len(remoteAnswers[i])))
		for _, nb := range remoteAnswers[i] {
			b = wire.AppendInt64(b, nb.ID)
			b = wire.AppendFloat32(b, nb.Dist2)
		}
		respBufs[rq.origin] = b
	}
	resps := c.AllToAll(respBufs)

	// Step 5 — merge local and remote candidates (§III-B step 5).
	byQID := make(map[int64]*ownedQuery, len(owned))
	for _, q := range owned {
		byQID[q.qid] = q
	}
	for src := 0; src < p; src++ {
		part := resps[src]
		if len(part) == 0 {
			continue
		}
		r := wire.NewDecoder(part)
		cnt := int(r.Uint32())
		for j := 0; j < cnt; j++ {
			qid := r.Int64()
			nn := int(r.Uint32())
			q := byQID[qid]
			for x := 0; x < nn; x++ {
				id := r.Int64()
				d := r.Float32()
				if q != nil {
					q.remote = append(q.remote, knnheap.Item{Dist2: d, ID: id})
				}
			}
		}
		mustDecode(&r, "remote candidates")
	}

	// Return finished results to their origin ranks (accounted to the
	// routing phase).
	c.Phase(PhaseFindOwner)
	retBufs := make([][]byte, p)
	retCounts := make([]int, p)
	for _, q := range owned {
		retCounts[q.origin]++
	}
	for r := range retBufs {
		if retCounts[r] > 0 {
			retBufs[r] = wire.AppendUint32(nil, uint32(retCounts[r]))
		}
	}
	for _, q := range owned {
		top := knnheap.MergeTopK(k, q.local, q.remote)
		for _, it := range top {
			if containsItem(q.remote, it) {
				trace.RemoteNeighborsWon++
			}
		}
		b := retBufs[q.origin]
		b = wire.AppendInt64(b, q.qid)
		b = wire.AppendUint32(b, uint32(len(top)))
		for _, it := range top {
			b = wire.AppendInt64(b, it.ID)
			b = wire.AppendFloat32(b, it.Dist2)
		}
		retBufs[q.origin] = b
	}
	rets := c.AllToAll(retBufs)
	var finished []Result
	for src := 0; src < p; src++ {
		part := rets[src]
		if len(part) == 0 {
			continue
		}
		r := wire.NewDecoder(part)
		cnt := int(r.Uint32())
		for j := 0; j < cnt; j++ {
			res := Result{QID: r.Int64()}
			nn := int(r.Uint32())
			res.Neighbors = make([]kdtree.Neighbor, nn)
			for x := 0; x < nn; x++ {
				res.Neighbors[x] = kdtree.Neighbor{ID: r.Int64(), Dist2: r.Float32()}
			}
			finished = append(finished, res)
		}
		mustDecode(&r, "returned results")
	}
	sort.Slice(finished, func(a, b int) bool { return finished[a].QID < finished[b].QID })
	return finished
}

func coordBytes(coords []float32) []byte {
	out := make([]byte, 0, 4*len(coords))
	for _, v := range coords {
		out = wire.AppendFloat32(out, v)
	}
	return out
}

func containsItem(items []knnheap.Item, it knnheap.Item) bool {
	for _, x := range items {
		if x.ID == it.ID && x.Dist2 == it.Dist2 {
			return true
		}
	}
	return false
}
