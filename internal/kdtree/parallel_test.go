package kdtree

// Differential tests for the wall-clock-parallel build: the headline
// guarantee is that Threads (and the real worker count behind it) never
// changes a single byte of the produced tree, and never moves a single
// simulated-time unit.

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/par"
	"panda/internal/simtime"
)

// withGOMAXPROCS runs fn with the given GOMAXPROCS (logical parallelism
// works — and exercises the race detector — even on a single-core host).
func withGOMAXPROCS(t *testing.T, n int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// parallelTestDatasets covers the shapes the partition passes care about:
// clustered 3-D, 10-D with heavy co-location (Daya Bay), massive duplicate
// runs, a constant dimension, and the tiny n ≤ bucket / n == 1 edges.
func parallelTestDatasets(t testing.TB) map[string]geom.Points {
	t.Helper()
	sets := map[string]geom.Points{
		"cosmo3d":    data.Cosmo(60_000, 2016).Points,
		"dayabay10d": data.DayaBay(40_000, 2016).Points,
	}

	// duplicates: a handful of locations repeated thousands of times —
	// the equal-run rotation is the hard part of the Dutch-flag replay.
	dup := geom.NewPoints(30_000, 3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < dup.Len(); i++ {
		c := float32(rng.Intn(5))
		dup.SetAt(i, []float32{c, float32(rng.Intn(3)), c})
	}
	sets["duplicates"] = dup

	// constantdim: one dimension identical everywhere, forcing the
	// constant-dimension retry path.
	cd := geom.NewPoints(20_000, 4)
	for i := 0; i < cd.Len(); i++ {
		cd.SetAt(i, []float32{rng.Float32(), 42, rng.Float32(), rng.Float32()})
	}
	sets["constantdim"] = cd

	// allsame: every point identical — the oversized-leaf fallback.
	same := geom.NewPoints(10_000, 3)
	for i := 0; i < same.Len(); i++ {
		same.SetAt(i, []float32{1, 2, 3})
	}
	sets["allsame"] = same

	// tiny: n ≤ bucket (single leaf) and a single point.
	tiny := geom.NewPoints(20, 3)
	for i := 0; i < tiny.Len(); i++ {
		tiny.SetAt(i, []float32{float32(i), float32(-i), 0.5})
	}
	sets["tiny"] = tiny
	one := geom.NewPoints(1, 5)
	one.SetAt(0, []float32{1, 2, 3, 4, 5})
	sets["one"] = one
	return sets
}

func rawEqual(t *testing.T, name string, a, b Raw) {
	t.Helper()
	if a.Dims != b.Dims || a.Root != b.Root || a.Height != b.Height || a.MaxBucket != b.MaxBucket {
		t.Fatalf("%s: scalar state differs: dims %d/%d root %d/%d height %d/%d maxBucket %d/%d",
			name, a.Dims, b.Dims, a.Root, b.Root, a.Height, b.Height, a.MaxBucket, b.MaxBucket)
	}
	if !bytes.Equal(a.NodesLE, b.NodesLE) {
		t.Fatalf("%s: node arrays differ (%d vs %d bytes)", name, len(a.NodesLE), len(b.NodesLE))
	}
	f32Equal := func(field string, x, y []float32) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d vs %d", name, field, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s[%d] = %v vs %v", name, field, i, x[i], y[i])
			}
		}
	}
	f32Equal("coords", a.Coords, b.Coords)
	f32Equal("splitBounds", a.SplitBounds, b.SplitBounds)
	f32Equal("boxMin", a.BoxMin, b.BoxMin)
	f32Equal("boxMax", a.BoxMax, b.BoxMax)
	if a.IDs.Len() != b.IDs.Len() || a.IDs.Narrow() != b.IDs.Narrow() || a.IDs.Base != b.IDs.Base {
		t.Fatalf("%s: id tables differ in shape: %d/%v/%d vs %d/%v/%d", name,
			a.IDs.Len(), a.IDs.Narrow(), a.IDs.Base, b.IDs.Len(), b.IDs.Narrow(), b.IDs.Base)
	}
	for i := range a.IDs.Len() {
		if a.IDs.At(i) != b.IDs.At(i) {
			t.Fatalf("%s: ids[%d] = %d vs %d", name, i, a.IDs.At(i), b.IDs.At(i))
		}
	}
}

// TestBuildParallelBitIdentical: for every dataset and every split policy,
// the build at Threads ∈ {2, 4, 8} (with real workers unlocked) must be
// byte-identical — Raw() state — to the Threads=1 sequential build. Under
// -race this doubles as the concurrent-build race check.
func TestBuildParallelBitIdentical(t *testing.T) {
	sets := parallelTestDatasets(t)
	policies := []struct {
		name string
		opts Options
	}{
		{"sampled-median", Options{}},
		{"mean-sample", Options{SplitValue: SplitMeanSample}},
		{"mid-range", Options{SplitValue: SplitMidRange}},
	}
	for name, pts := range sets {
		// Non-trivial ids so id packing order is checked too.
		ids := make([]int64, pts.Len())
		for i := range ids {
			ids[i] = int64(i)*3 + 11
		}
		for _, pol := range policies {
			opts := pol.opts
			opts.Threads = 1
			var base Raw
			withGOMAXPROCS(t, 1, func() {
				tr := Build(pts, ids, opts)
				if err := tr.validate(); err != nil {
					t.Fatalf("%s/%s: sequential tree invalid: %v", name, pol.name, err)
				}
				base = tr.Raw()
			})
			for _, threads := range []int{2, 4, 8} {
				opts.Threads = threads
				withGOMAXPROCS(t, 8, func() {
					got := Build(pts, ids, opts).Raw()
					rawEqual(t, name+"/"+pol.name, base, got)
				})
			}
		}
	}
}

// TestPartition3MatchesDutchFlag: the parallel classify → solve → scatter
// partition must reproduce the in-place Dutch-national-flag permutation
// element for element, including heavy duplicate runs and one-sided inputs.
func TestPartition3MatchesDutchFlag(t *testing.T) {
	withGOMAXPROCS(t, 8, func() {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 40; trial++ {
			n := parGrain + rng.Intn(3*parGrain)
			distinct := []int{1, 2, 3, 17, 1000}[trial%5]
			coords := make([]float32, n)
			for i := range coords {
				coords[i] = float32(rng.Intn(distinct))
			}
			pivot := float32(rng.Intn(distinct + 1))
			want := make([]int32, n)
			got := make([]int32, n)
			for i := range want {
				v := int32(rng.Intn(n)) // arbitrary, possibly repeated ids
				want[i], got[i] = v, v
			}
			wantLt, wantEq := threeWayPartition(coords, 1, 0, want, pivot)

			b := &builder{coords: coords, dims: 1, idx: got, pool: par.NewPool(8)}
			gotLt, gotEq := b.partition3(b.pool, got, 0, pivot)
			if wantLt != gotLt || wantEq != gotEq {
				t.Fatalf("trial %d: boundaries (%d,%d) vs (%d,%d)", trial, gotLt, gotEq, wantLt, wantEq)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("trial %d (n=%d distinct=%d pivot=%v): idx[%d] = %d, want %d",
						trial, n, distinct, pivot, i, got[i], want[i])
				}
			}
		}
	})
}

// meterState flattens a recorder into comparable per-phase/thread/kind unit
// counts.
func meterState(rec *simtime.Recorder) map[string][][]int64 {
	out := make(map[string][][]int64)
	for _, p := range rec.Phases() {
		th := make([][]int64, len(p.Threads))
		for i := range p.Threads {
			units := make([]int64, simtime.NumKinds)
			for k := 0; k < simtime.NumKinds; k++ {
				units[k] = p.Threads[i].Units(simtime.Kind(k))
			}
			th[i] = units
		}
		out[p.Name] = th
	}
	return out
}

// TestBuildSimtimeInvariantToRealWorkers: with the simulated thread count
// fixed, the recorder's per-phase per-thread per-kind unit totals must not
// move when the real worker count changes — the cost model sees simulated
// threads only, never the hardware. This pins the Figure 5/6 inputs against
// real-parallelism regressions.
func TestBuildSimtimeInvariantToRealWorkers(t *testing.T) {
	d := data.Cosmo(50_000, 2016)
	record := func(gomax int) map[string][][]int64 {
		var rec *simtime.Recorder
		withGOMAXPROCS(t, gomax, func() {
			rec = simtime.NewRecorder(4)
			Build(d.Points, nil, Options{Threads: 4, Recorder: rec})
		})
		return meterState(rec)
	}
	seq := record(1)
	parl := record(8)
	if len(seq) != len(parl) {
		t.Fatalf("phase sets differ: %d vs %d", len(seq), len(parl))
	}
	for phase, th := range seq {
		got, ok := parl[phase]
		if !ok {
			t.Fatalf("phase %q missing under real parallelism", phase)
		}
		for ti := range th {
			for k := range th[ti] {
				if th[ti][k] != got[ti][k] {
					t.Fatalf("phase %q thread %d kind %v: %d units sequential vs %d parallel",
						phase, ti, simtime.Kind(k), th[ti][k], got[ti][k])
				}
			}
		}
	}
}

// TestBuildConcurrentTrees: independent builds racing each other (shared
// package state would show up under -race).
func TestBuildConcurrentTrees(t *testing.T) {
	withGOMAXPROCS(t, 8, func() {
		d := data.Cosmo(20_000, 2016)
		var base Raw
		base = Build(d.Points, nil, Options{Threads: 4}).Raw()
		done := make(chan *Tree, 4)
		for g := 0; g < 4; g++ {
			go func() {
				done <- Build(d.Points, nil, Options{Threads: 4})
			}()
		}
		for g := 0; g < 4; g++ {
			tr := <-done
			rawEqual(t, "concurrent", base, tr.Raw())
		}
	})
}

// TestCanonicalOrderIsPreorder: the canonical node layout must be DFS
// preorder — root at 0, every left child immediately after its parent —
// which is what makes the layout a pure function of the tree shape.
func TestCanonicalOrderIsPreorder(t *testing.T) {
	d := data.Cosmo(30_000, 2016)
	tr := Build(d.Points, nil, Options{Threads: 4})
	if tr.root != 0 {
		t.Fatalf("canonical root = %d, want 0", tr.root)
	}
	for ni, nd := range tr.nodes {
		if nd.dim == leafDim {
			continue
		}
		if int(nd.left) != ni+1 {
			t.Fatalf("node %d: left child at %d, want %d (preorder)", ni, nd.left, ni+1)
		}
		if nd.right <= nd.left {
			t.Fatalf("node %d: right child %d not after left %d", ni, nd.right, nd.left)
		}
	}
}
