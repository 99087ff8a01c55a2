package main

import (
	"fmt"
	"time"

	"panda"
)

// endToEndUnits names every end-to-end metric, with its unit.
var endToEndUnits = map[string]string{
	"throughput_qps": "1/s",
	"latency_p50_us": "us",
	"setup_s":        "s",
	"success_rate":   "frac",
	"mem_mb":         "MB",
}

// record is everything one run reports: the host and dataset it ran on,
// its sample counts, and its metrics.
type record struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	WindowS  float64  `json:"window_s"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	Dataset  dataInfo `json:"dataset"`
	Samples  int      `json:"window_samples"`
	// LatencyP99Us is the window's 99th-percentile latency (µs). It is
	// recorded but not registered as an end-to-end metric: stolen-CPU
	// episodes on a shared host move it by 2-3x (README.md).
	LatencyP99Us float64 `json:"latency_p99_us"`
	// HostStealFrac is the share of the host's CPU time a hypervisor gave
	// to other guests during the measured window: a noisy-neighbour flag.
	HostStealFrac float64   `json:"host_steal_frac"`
	Attempted     int64     `json:"attempted"`
	Errors        int64     `json:"errors"`
	Lagged        int64     `json:"lagged"`
	Mismatches    int64     `json:"mismatches"`
	SetupRuns     []float64 `json:"setup_runs_s"`
	EndToEnd      metrics   `json:"end_to_end"`
	Layers        metrics   `json:"per_layer,omitempty"`
	TraceFile     string    `json:"trace_file,omitempty"`

	tracer *tracer
}

// dataInfo identifies the dataset and how its tree compares with the
// host's last-level cache.
type dataInfo struct {
	Name            string  `json:"name"`
	Points          int     `json:"points"`
	Dims            int     `json:"dims"`
	Queries         int     `json:"queries"`
	Seed            uint64  `json:"seed"`
	QuerySeed       uint64  `json:"query_seed"`
	TreeBytes       uint64  `json:"tree_bytes"`
	TreeBytesOverL3 float64 `json:"tree_bytes_over_l3"`
}

// run sets the workload up, drives it, and measures it.
func run(in *inputs, cfg runConfig) (*record, error) {
	sp := in.sp
	rec := &record{
		Workload: sp.name, Seed: cfg.seed, WindowS: cfg.window.Seconds(), Traced: cfg.traced,
		Host:     readHost(),
		Dataset:  dataInfo{Name: sp.dataset, Points: sp.points, Dims: in.dims, Queries: in.qs.len(), Seed: dataSeed, QuerySeed: cfg.seed},
		EndToEnd: metrics{},
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		rec.tracer = tr
		rec.Layers = newLayerMetrics()
	}
	d, setups, builds, mems, steals, err := setupRepeated(in, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rec.Dataset.TreeBytes = d.treeBytes
	if rec.Host.L3Bytes > 0 {
		rec.Dataset.TreeBytesOverL3 = float64(d.treeBytes) / float64(rec.Host.L3Bytes)
	}
	rec.SetupRuns = setups
	rec.EndToEnd.set("setup_s", median(quietValues(setups, steals)))
	rec.EndToEnd.set("mem_mb", median(mems)/(1<<20))

	var c counts
	var ws0 windowStats
	if sp.batch > 0 {
		ws0, err = runBatch(d, in, cfg, rec, &c, tr)
	} else {
		ws0, err = runServing(d, in, cfg, rec, &c, tr)
	}
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rec.Samples = ws0.samples
	rec.EndToEnd.set("throughput_qps", ws0.throughput)
	rec.EndToEnd.set("latency_p50_us", ws0.p50)
	rec.LatencyP99Us = ws0.p99
	rec.HostStealFrac = ws0.steal
	rec.EndToEnd.set("success_rate", 1-float64(ws0.failed)/float64(max(ws0.samples, 1)))

	if cfg.traced {
		build := median(quietValues(builds, steals))
		if sp.ranks > 1 {
			rec.Layers.set("core.dist_build_s", build)
			build = 0 // the shards' builds say nothing about one tree's
		}
		t1, err := measureBuilds(in, rec.Layers, build, tr)
		if err != nil {
			return nil, err
		}
		measureSearch(in, rec.Layers, &c, tr)
		if err := measureEngine(in, t1, rec.Layers["server.batch_size_mean"].Value, rec.Layers, &c, tr); err != nil {
			return nil, err
		}
		measureCodec(in, rec.Layers, &c, tr)
	}
	rec.Attempted, rec.Errors, rec.Lagged, rec.Mismatches = c.attempted, c.errors, c.lagged, c.mismatches
	return rec, nil
}

// runServing drives the serving deployment: the untraced window gives the
// end-to-end figures; a traced run adds a traced window and the serving
// layers' figures.
func runServing(d *deployment, in *inputs, cfg runConfig, rec *record, c *counts, tr *tracer) (windowStats, error) {
	p0 := runLoad(d, in, cfg, 0, 0, nil)
	c.add(p0.recs)
	ws0 := p0.stats()
	if tr == nil {
		return ws0, nil
	}
	p1 := runLoad(d, in, cfg, 1, len(p0.recs), tr)
	c.add(p1.recs)
	ws1 := p1.stats()
	serverLayers(&p0, ws0, ws1, rec.Layers)
	if in.sp.ranks > 1 {
		routerLayers(in, d, rec.Layers)
	} else {
		rec.Layers.set("server.ranks_contacted_per_query", 1)
	}
	return ws0, nil
}

// runBatch drives the offline workload: back-to-back KNNBatchFlatInto
// calls of sp.batch queries cycling over the pool. Throughput is the batch
// size over the median call time; latency is per call.
func runBatch(d *deployment, in *inputs, cfg runConfig, rec *record, c *counts, tr *tracer) (windowStats, error) {
	qs, sp := in.qs, in.sp
	k := sp.mix[0].k
	nb := max(qs.len()/sp.batch, 1)
	var flat []panda.Neighbor
	var offs []int32
	// call runs one batch and returns its latency in µs and the share of
	// host CPU stolen while it ran.
	call := func(n int, tr *tracer) (float64, float64, error) {
		first := (n % nb) * sp.batch
		t0 := readTicks()
		start := time.Now()
		var err error
		flat, offs, err = d.tree.KNNBatchFlatInto(qs.coords[first*in.dims:(first+sp.batch)*in.dims], k, flat, offs)
		el := time.Since(start)
		steal := stealBetween(t0, readTicks())
		if err != nil {
			c.attempted += int64(sp.batch)
			c.errors += int64(sp.batch)
			return 0, 0, err
		}
		tr.record("Tree.KNNBatchFlatInto", -1, start, el)
		for j := 0; j < sp.batch; j++ {
			c.check(sameNeighbors(flat[offs[j]:offs[j+1]], qs.want[first+j]))
		}
		return float64(el) / 1e3, steal, nil
	}
	// window measures back-to-back calls; the figures come from the half
	// of the calls with the least CPU stolen, as for the serving windows.
	window := func(tr *tracer) (ws windowStats, a, b snapshot, err error) {
		var lats, steals []float64
		wrong := c.mismatches
		a = takeSnapshot(nil)
		start := time.Now()
		for n := 0; n == 0 || time.Since(start) < cfg.window; n++ {
			lat, steal, err := call(n, tr)
			if err != nil {
				return ws, a, a, err
			}
			lats = append(lats, lat)
			steals = append(steals, steal)
		}
		b = takeSnapshot(nil)
		ws.steal = stealBetween(a.ticks, b.ticks)
		ws.samples = len(lats) * sp.batch
		ws.failed = int(c.mismatches - wrong)
		lats = quietValues(lats, steals)
		ws.p50 = median(lats)
		ws.p99 = percentile(lats, 0.99)
		ws.throughput = float64(sp.batch) / (ws.p50 / 1e6)
		return ws, a, b, nil
	}
	// Warm-up: one unmeasured call fills the searcher and scratch pools.
	if _, _, err := call(0, nil); err != nil {
		return windowStats{}, err
	}
	ws0, a, b, err := window(nil)
	if err != nil || tr == nil {
		return ws0, err
	}
	ws1, _, _, err := window(tr)
	if err != nil {
		return ws0, err
	}
	runtimeLayers(a, b, float64(ws0.samples), rec.Layers)
	if ws0.p50 > 0 {
		rec.Layers.set("trace.overhead_frac", (ws1.p50-ws0.p50)/ws0.p50)
	}
	return ws0, nil
}
