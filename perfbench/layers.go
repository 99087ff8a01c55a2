package main

import (
	"math"
	"runtime"
	"time"

	"panda"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/proto"
)

// layerUnits names every per-layer metric a traced run reports, with its
// unit. A metric a workload does not exercise (the serving layers on the
// offline batch workload, the router on a single node) reads 0; README.md
// lists which workload each one is meant for.
var layerUnits = map[string]string{
	"kdtree.build_s":                         "s",
	"kdtree.build_speedup":                   "x",
	"core.dist_build_s":                      "s",
	"kdtree.search_ns_per_query":             "ns",
	"kdtree.nodes_per_query":                 "count",
	"kdtree.points_per_query":                "count",
	"kdtree.heap_pushes_per_query":           "count",
	"geom.bytes_per_query":                   "B",
	"panda.batch_ns_per_query":               "ns",
	"panda.batch_ns_per_query_at_mean_batch": "ns",
	"panda.batch_speedup":                    "x",
	"panda.batch_allocs_per_call":            "count",
	"proto.resp_bytes_per_query":             "B",
	"proto.encode_ns_per_query":              "ns",
	"proto.decode_ns_per_query":              "ns",
	"server.decode_us":                       "us",
	"server.queue_wait_us":                   "us",
	"server.linger_us":                       "us",
	"server.engine_us":                       "us",
	"server.response_write_us":               "us",
	"server.batch_size_mean":                 "count",
	"server.rounds_per_s":                    "1/s",
	"server.shed_frac":                       "frac",
	"server.remote_exchange_us":              "us",
	"server.forwarded_frac":                  "frac",
	"server.rank_queries_per_query":          "count",
	"server.ranks_contacted_per_query":       "count",
	"client.self_us":                         "us",
	"runtime.gc_cycles_per_kquery":           "count",
	"runtime.gc_pause_ms":                    "ms",
	"loadgen.late_p99_us":                    "us",
	"trace.overhead_frac":                    "frac",
}

// Layer measurements run on a fixed share of the pool so their counts
// repeat exactly for a seed, and are repeated engineReps times (builds
// buildRuns times) with the median kept.
const (
	layerSample = 5000
	engineReps  = 3
	buildRuns   = 3
)

// metrics collects named values for one report.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		unit = endToEndUnits[name]
	}
	m[name] = metric{Value: v, Unit: unit}
}

func newLayerMetrics() metrics {
	m := metrics{}
	for name := range layerUnits {
		m.set(name, 0)
	}
	return m
}

// measureBuilds times buildRuns single-thread builds of the workload's
// points (the paper's Fig. 6 baseline) against nproc-thread builds, and
// returns the last single-thread tree for the engine measurements.
// nprocBuild is the nproc build time in seconds when set-up already timed
// it (0: time it here, as for the cluster, whose set-up builds shards).
func measureBuilds(in *inputs, m metrics, nprocBuild float64, tr *tracer) (*panda.Tree, error) {
	timeBuilds := func(threads int) (float64, *panda.Tree, error) {
		var secs []float64
		var t *panda.Tree
		for i := 0; i < buildRuns; i++ {
			t = nil // let the previous tree be collected before timing the next
			runtime.GC()
			start := time.Now()
			var err error
			if t, err = panda.Build(in.coords, in.dims, nil, &panda.BuildOptions{Threads: threads}); err != nil {
				return 0, nil, err
			}
			el := time.Since(start)
			tr.record("panda.Build", -1, start, el)
			secs = append(secs, el.Seconds())
		}
		return median(secs), t, nil
	}
	if nprocBuild == 0 {
		var err error
		if nprocBuild, _, err = timeBuilds(runtime.NumCPU()); err != nil {
			return nil, err
		}
	}
	single, t1, err := timeBuilds(1)
	if err != nil {
		return nil, err
	}
	m.set("kdtree.build_s", nprocBuild)
	m.set("kdtree.build_speedup", single/nprocBuild)
	return t1, nil
}

// sampleKNN returns the first layerSample KNN queries of the pool.
func sampleKNN(qs *querySet) []int {
	var idx []int
	for i := 0; i < qs.len() && len(idx) < layerSample; i++ {
		if qs.k[i] > 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// measureSearch runs the kd-tree Searcher directly over the sample: time
// per query and the exact work counts QueryStats reports. Answers are
// checked into c.
func measureSearch(in *inputs, m metrics, c *counts, tr *tracer) {
	qs := in.qs
	kt := kdtree.Build(geom.FromCoords(in.coords, in.dims), nil, kdtree.Options{Threads: runtime.NumCPU()})
	s := kt.NewSearcher()
	idx := sampleKNN(qs)
	out := make([]kdtree.Neighbor, 0, proto.MaxK)
	var st kdtree.QueryStats
	var times []float64
	for rep := 0; rep < engineReps; rep++ {
		st = kdtree.QueryStats{}
		start := time.Now()
		for _, i := range idx {
			var qst kdtree.QueryStats
			out, qst = s.Search(qs.point(i), qs.k[i], kdtree.Inf2, out[:0])
			st.Add(qst)
			if rep == 0 {
				c.check(sameNeighbors(out, qs.want[i]))
			}
		}
		el := time.Since(start)
		tr.record("kdtree.Searcher.Search", -1, start, el)
		times = append(times, float64(el)/float64(len(idx)))
	}
	n := float64(len(idx))
	m.set("kdtree.search_ns_per_query", median(times))
	m.set("kdtree.nodes_per_query", float64(st.NodesVisited)/n)
	m.set("kdtree.points_per_query", float64(st.PointsScanned)/n)
	m.set("kdtree.heap_pushes_per_query", float64(st.HeapPushes)/n)
	// Computed, not measured: the coordinate bytes the distance kernel
	// streams (4-byte floats per scanned point), ignoring cache reuse.
	m.set("geom.bytes_per_query", float64(st.PointsScanned)/n*float64(in.dims)*4)
}

// measureEngine times Tree.KNNBatchFlatInto on t at the workload batch
// size with nproc threads and with one, and at meanBatch (the serving
// layer's observed mean batch; 0 skips it). Answers are checked into c.
func measureEngine(in *inputs, t *panda.Tree, meanBatch float64, m metrics, c *counts, tr *tracer) error {
	qs := in.qs
	k := in.sp.mix[0].k
	n := in.sp.batch
	if n == 0 {
		n = 10_000
	}
	n = min(n, qs.len())
	queries := qs.coords[:n*in.dims]
	var flat []panda.Neighbor
	var offs []int32
	// call runs the batch, checks answers of queries whose pool k is k,
	// and returns ns per query. Workload-size calls get a span each.
	call := func(qb []float32, first int) (float64, error) {
		start := time.Now()
		var err error
		flat, offs, err = t.KNNBatchFlatInto(qb, k, flat, offs)
		el := time.Since(start)
		if err != nil {
			return 0, err
		}
		if len(qb) == len(queries) {
			tr.record("Tree.KNNBatchFlatInto", -1, start, el)
		}
		for j := 0; j+1 < len(offs); j++ {
			if qs.k[first+j] == k {
				c.check(sameNeighbors(flat[offs[j]:offs[j+1]], qs.want[first+j]))
			}
		}
		return float64(el) / float64(len(offs)-1), nil
	}
	timed := func(threads int) (float64, error) {
		t.SetThreads(threads)
		if _, err := call(queries, 0); err != nil { // warm the pools
			return 0, err
		}
		var xs []float64
		for rep := 0; rep < engineReps; rep++ {
			ns, err := call(queries, 0)
			if err != nil {
				return 0, err
			}
			xs = append(xs, ns)
		}
		return median(xs), nil
	}

	nproc, err := timed(runtime.NumCPU())
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rep := 0; rep < engineReps; rep++ {
		if _, err := call(queries, 0); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m.set("panda.batch_ns_per_query", nproc)
	m.set("panda.batch_allocs_per_call", float64(after.Mallocs-before.Mallocs)/engineReps)

	if meanBatch > 0 {
		b := max(1, int(math.Round(meanBatch)))
		var xs []float64
		for rep := 0; rep < engineReps; rep++ {
			var total float64
			start := time.Now()
			for first := 0; first+b <= n; first += b {
				ns, err := call(queries[first*in.dims:(first+b)*in.dims], first)
				if err != nil {
					return err
				}
				total += ns * float64(b)
			}
			tr.record("Tree.KNNBatchFlatInto.mean_batch_sweep", -1, start, time.Since(start))
			xs = append(xs, total/float64(n-n%b))
		}
		m.set("panda.batch_ns_per_query_at_mean_batch", median(xs))
	}

	single, err := timed(1)
	if err != nil {
		return err
	}
	t.SetThreads(runtime.NumCPU())
	m.set("panda.batch_speedup", single/nproc)
	return nil
}

// measureCodec encodes and decodes the sample's requests and reference
// responses with the proto codec, one query per frame as the serving
// layer carries them. Decoded answers are checked into c.
func measureCodec(in *inputs, m metrics, c *counts, tr *tracer) {
	qs := in.qs
	n := min(qs.len(), layerSample)
	encode := func(b []byte, i int) []byte {
		if qs.k[i] > 0 {
			return proto.AppendKNNRequest(b, uint64(i), qs.k[i], qs.point(i), in.dims)
		}
		return proto.AppendRadiusRequest(b, uint64(i), qs.r2[i], qs.point(i))
	}
	offsets := []int32{0, 0}
	respond := func(b []byte, i int) []byte {
		offsets[1] = int32(len(qs.want[i]))
		return proto.AppendNeighborsResponse(b, uint64(i), offsets, qs.want[i])
	}
	reqs := make([][]byte, n)
	resps := make([][]byte, n)
	var respBytes int
	var req proto.Request
	var resp proto.Response
	for i := 0; i < n; i++ {
		reqs[i] = encode(nil, i)
		resps[i] = respond(nil, i)
		respBytes += len(resps[i])
		ok := proto.ConsumeRequest(reqs[i], in.dims, &req) == nil && proto.ConsumeResponse(resps[i], &resp) == nil
		c.check(ok && sameNeighbors(resp.Flat, qs.want[i]))
	}
	var enc, dec []float64
	var buf []byte
	for rep := 0; rep < engineReps; rep++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			buf = encode(buf[:0], i)
			buf = respond(buf[:0], i)
		}
		el := time.Since(start)
		tr.record("proto.Append", -1, start, el)
		enc = append(enc, float64(el)/float64(n))

		start = time.Now()
		for i := 0; i < n; i++ {
			// Errors were counted by the checking pass above.
			_ = proto.ConsumeRequest(reqs[i], in.dims, &req)
			_ = proto.ConsumeResponse(resps[i], &resp)
		}
		el = time.Since(start)
		tr.record("proto.Consume", -1, start, el)
		dec = append(dec, float64(el)/float64(n))
	}
	m.set("proto.resp_bytes_per_query", float64(respBytes)/float64(n))
	m.set("proto.encode_ns_per_query", median(enc))
	m.set("proto.decode_ns_per_query", median(dec))
}

// serverLayers reports the dispatcher and runtime figures of the untraced
// window (snapshot differences) and the traced window's client self time
// and tracing overhead.
func serverLayers(p0 *phaseResult, ws0, ws1 windowStats, m metrics) {
	a, b := p0.before, p0.after
	m.set("server.decode_us", stageMeanUs(a, b, proto.StageDecode))
	m.set("server.queue_wait_us", stageMeanUs(a, b, proto.StageQueueWait))
	m.set("server.linger_us", stageMeanUs(a, b, proto.StageLinger))
	m.set("server.engine_us", stageMeanUs(a, b, proto.StageEngine))
	m.set("server.response_write_us", stageMeanUs(a, b, proto.StageResponseWrite))
	m.set("server.remote_exchange_us", stageMeanUs(a, b, proto.StageRemoteExchange))
	queries, batches := float64(b.queries-a.queries), float64(b.batches-a.batches)
	secs := b.at.Sub(a.at).Seconds()
	if batches > 0 {
		m.set("server.batch_size_mean", queries/batches)
	}
	m.set("server.rounds_per_s", batches/secs)
	answered := float64(ws0.samples - ws0.failed)
	if ws0.samples > 0 {
		m.set("server.shed_frac", float64(b.shed-a.shed)/float64(ws0.samples))
	}
	if answered > 0 {
		m.set("server.rank_queries_per_query", queries/answered)
	}
	m.set("client.self_us", ws1.selfP50)
	m.set("loadgen.late_p99_us", ws0.lateP99)
	runtimeLayers(a, b, answered, m)
	if ws0.p50 > 0 {
		m.set("trace.overhead_frac", (ws1.p50-ws0.p50)/ws0.p50)
	}
}

// runtimeLayers reports the Go runtime's GC work over a window that
// answered the given number of queries.
func runtimeLayers(a, b snapshot, answered float64, m metrics) {
	if answered > 0 {
		m.set("runtime.gc_cycles_per_kquery", float64(b.numGC-a.numGC)/(answered/1000))
	}
	m.set("runtime.gc_pause_ms", float64(b.gcPauseNs-a.gcPauseNs)/1e6)
}

// routerLayers derives the cluster routing figures over the sample from
// the distributed trees' own routing functions: how many queries enter at
// a rank that does not own them, and how many ranks each query touches
// (entry, owner, and every rank whose domain the owner's kth-candidate
// ball crosses — the ranks the router exchanges candidates with).
func routerLayers(in *inputs, d *deployment, m metrics) {
	qs := in.qs
	idx := sampleKNN(qs)
	var forwarded, contacted float64
	var targets []int
	for _, i := range idx {
		q := qs.point(i)
		entry := int(d.entry[i%len(d.entry)]) // pool query i went out on client i mod conns
		owner := d.dts[0].Owner(q)
		local := d.dts[owner].LocalTree().KNN(q, qs.k[i])
		r2 := float32(math.MaxFloat32)
		if len(local) == qs.k[i] {
			r2 = local[len(local)-1].Dist2
		}
		targets = d.dts[owner].RanksWithin(q, r2, owner, targets[:0])
		touched := map[int]bool{entry: true, owner: true}
		for _, t := range targets {
			touched[t] = true
		}
		if owner != entry {
			forwarded++
		}
		contacted += float64(len(touched))
	}
	n := float64(len(idx))
	m.set("server.forwarded_frac", forwarded/n)
	m.set("server.ranks_contacted_per_query", contacted/n)
}
