package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"panda"
)

// spec defines one workload. Exactly one of batch (offline engine calls)
// and ranks (a serving deployment) selects what runs.
type spec struct {
	name    string
	dataset string // panda.GenerateDataset name
	points  int    // indexed points (the union of all shards for a cluster)
	pool    int    // queries drawn, per run, from 2×pool held-out points generated after the points

	batch int // > 0: Tree.KNNBatchFlatInto calls of this many queries, no server

	ranks       int       // 1: single-node server.New; > 1: NewCluster ranks over a TCP mesh
	rate        float64   // open-loop Poisson arrivals per second; 0: closed loop
	conns       int       // client connections (cluster: entering at different ranks)
	outstanding int       // closed loop: requests in flight per connection
	mix         []kWeight // KNN k distribution
	radiusFrac  float64   // share of radius queries (r² = the query's 16th-neighbour distance)
}

// kWeight is one entry of a workload's k distribution.
type kWeight struct {
	k int
	w float64
}

// radiusRank is the neighbour whose distance sets a radius query's r², so
// radius responses stay near 15 points in halos and voids alike.
const radiusRank = 16

// The four workloads. README.md gives the reason each exists and which
// layer it isolates; the names are cited by later changes, so they are
// fixed.
var workloads = map[string]spec{
	"serve-light": {
		name: "serve-light", dataset: "cosmo", points: 1_000_000, pool: 1 << 17,
		ranks: 1, rate: 1000, conns: 2, mix: []kWeight{{8, 1}},
	},
	"serve-saturated": {
		name: "serve-saturated", dataset: "cosmo", points: 1_000_000, pool: 1 << 17,
		ranks: 1, conns: 2, outstanding: 32, mix: []kWeight{{8, 0.7}, {32, 0.3}}, radiusFrac: 0.1,
	},
	"batch-dayabay10d": {
		name: "batch-dayabay10d", dataset: "dayabay", points: 500_000, pool: 20_000,
		batch: 10_000, mix: []kWeight{{5, 1}},
	},
	"cluster4-routed": {
		name: "cluster4-routed", dataset: "cosmo", points: 400_000, pool: 1 << 17,
		ranks: 4, rate: 2000, conns: 2, mix: []kWeight{{8, 0.7}, {32, 0.3}},
	},
}

// runConfig is what one invocation varies.
type runConfig struct {
	seed   uint64
	window time.Duration // measured window
	warmup time.Duration // unmeasured load before each window (answers still checked)
	traced bool
}

// phases is how many load windows a run drives: the untraced window, plus
// the traced one in a traced run.
func (c runConfig) phases() int {
	if c.traced {
		return 2
	}
	return 1
}

// querySet is the held-out query pool with its reference answers.
type querySet struct {
	dims   int
	coords []float32 // row-major held-out points
	k      []int     // neighbours wanted; 0 marks a radius query
	r2     []float32 // radius queries: squared radius (strict bound)
	want   [][]panda.Neighbor
}

func (qs *querySet) len() int              { return len(qs.k) }
func (qs *querySet) point(i int) []float32 { return qs.coords[i*qs.dims : (i+1)*qs.dims] }

// inputs is everything a run needs that is made before any timing starts:
// the indexed points, the query pool with reference answers, and the
// arrival schedules. The program only ever receives these generated inputs.
type inputs struct {
	sp     spec
	dims   int
	coords []float32 // indexed points
	qs     *querySet
	// sched[p] holds phase p's arrival offsets from its start (open loop).
	sched [][]time.Duration
	// shards and shardIDs are each cluster rank's stripe of the points.
	shards   [][]float32
	shardIDs [][]int64
}

// dataSeed generates every workload's dataset, so all runs of a workload
// index the same points: the query cost of a generated dayabay instance
// varies by ±10 % from seed to seed, which would swamp the changes the
// benchmark exists to show. --seed varies everything else.
const dataSeed = 1

// prepare generates the workload's points and held-out points, draws the
// run's queries, k mix and arrival schedule from cfg.seed, and answers
// every query the run will issue on a single-thread reference tree.
func prepare(sp spec, cfg runConfig) (*inputs, error) {
	heldOut := 2 * sp.pool
	all, dims, _, err := panda.GenerateDataset(sp.dataset, sp.points+heldOut, dataSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{sp: sp, dims: dims, coords: all[:sp.points*dims]}
	held := all[sp.points*dims:]
	if sp.ranks > 1 {
		in.shards, in.shardIDs = stripe(in.coords, dims, sp.ranks)
	}

	used := sp.pool
	if sp.rate > 0 {
		rng := rand.New(rand.NewPCG(cfg.seed, 0x5eed5c4ed))
		total := 0
		for p := 0; p < cfg.phases(); p++ {
			s := poisson(rng, sp.rate, cfg.warmup+cfg.window)
			in.sched = append(in.sched, s)
			total += len(s)
		}
		used = min(total, sp.pool)
	}

	ref, err := panda.Build(in.coords, dims, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}

	qs := &querySet{dims: dims, coords: make([]float32, used*dims), k: make([]int, used), r2: make([]float32, used), want: make([][]panda.Neighbor, used)}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x9e3779b9))
	for i, j := range rng.Perm(heldOut)[:used] {
		copy(qs.point(i), held[j*dims:(j+1)*dims])
	}
	for i := range qs.k {
		if rng.Float64() < sp.radiusFrac {
			continue // k = 0: radius query
		}
		u := rng.Float64()
		for _, m := range sp.mix {
			qs.k[i] = m.k
			if u < m.w {
				break
			}
			u -= m.w
		}
	}
	// The reference answers each query on its own through Tree.KNN and
	// Tree.RadiusSearch, never the batch engine or the serving path.
	parallel(used, func(i int) {
		q := qs.point(i)
		if qs.k[i] > 0 {
			qs.want[i] = ref.KNN(q, qs.k[i])
			return
		}
		qs.r2[i] = ref.KNN(q, radiusRank)[radiusRank-1].Dist2
		qs.want[i] = ref.RadiusSearch(q, qs.r2[i])
	})
	in.qs = qs
	return in, nil
}

// poisson returns the arrival offsets of a Poisson process of the given
// rate over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// parallel runs f(0..n-1) on one goroutine per CPU.
func parallel(n int, f func(i int)) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

// sameNeighbors reports whether two answers are bit-for-bit equal.
func sameNeighbors(a, b []panda.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Dist2) != math.Float32bits(b[i].Dist2) {
			return false
		}
	}
	return true
}
