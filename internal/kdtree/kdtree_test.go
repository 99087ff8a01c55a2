package kdtree

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/sample"
	"panda/internal/simtime"
)

// bruteKNN is the exact oracle.
func bruteKNN(pts geom.Points, q []float32, k int) []Neighbor {
	n := pts.Len()
	all := make([]Neighbor, n)
	for i := 0; i < n; i++ {
		all[i] = Neighbor{ID: int64(i), Dist2: geom.Dist2(q, pts.At(i))}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist2 != all[b].Dist2 {
			return all[a].Dist2 < all[b].Dist2
		}
		return all[a].ID < all[b].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sameNeighborDistances compares result distance multisets (ids may differ
// under exact ties).
func sameNeighborDistances(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dist2 != b[i].Dist2 {
			return false
		}
	}
	return true
}

func TestBuildEmpty(t *testing.T) {
	tr := Build(geom.NewPoints(0, 3), nil, Options{})
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("empty tree len=%d height=%d", tr.Len(), tr.Height())
	}
	if res := tr.KNN([]float32{0, 0, 0}, 3); len(res) != 0 {
		t.Fatalf("empty tree KNN = %v", res)
	}
}

func TestBuildSinglePoint(t *testing.T) {
	p := geom.NewPoints(1, 2)
	p.SetAt(0, []float32{3, 4})
	tr := Build(p, nil, Options{})
	res := tr.KNN([]float32{0, 0}, 5)
	if len(res) != 1 || res[0].ID != 0 || res[0].Dist2 != 25 {
		t.Fatalf("single point KNN = %v", res)
	}
}

func TestBuildSmallerThanBucket(t *testing.T) {
	d := data.Uniform(10, 3, 1)
	tr := Build(d.Points, nil, Options{BucketSize: 32})
	if s := tr.Stats(); s.Leaves != 1 || s.Nodes != 1 {
		t.Fatalf("stats = %+v, want single leaf", s)
	}
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildValidatesInvariants(t *testing.T) {
	for _, name := range []string{"uniform", "cosmo", "plasma", "dayabay"} {
		d, err := data.ByName(name, 3000, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			tr := Build(d.Points, nil, Options{Threads: threads})
			if err := tr.validate(); err != nil {
				t.Fatalf("%s threads=%d: %v", name, threads, err)
			}
		}
	}
}

func TestBuildRespectsBucketSize(t *testing.T) {
	d := data.Uniform(5000, 3, 2)
	for _, bs := range []int{8, 32, 128} {
		tr := Build(d.Points, nil, Options{BucketSize: bs})
		s := tr.Stats()
		if s.MaxBucket > bs {
			t.Fatalf("bucket size %d: max bucket %d", bs, s.MaxBucket)
		}
	}
}

func TestBuildHeightIsLogarithmic(t *testing.T) {
	n := 1 << 14
	d := data.Uniform(n, 3, 3)
	tr := Build(d.Points, nil, Options{})
	// Perfectly balanced: log2(16384/32) = 9 levels of splits, +1 root.
	// The approximate median should stay within ~1.6x of ideal; the paper
	// reports height 21 vs FLANN's 34 on cosmo (≈1.3-2x slack vs perfect).
	ideal := int(math.Ceil(math.Log2(float64(n)/32))) + 1
	if tr.Height() > ideal*16/10+2 {
		t.Fatalf("height %d too far above ideal %d", tr.Height(), ideal)
	}
}

func TestBuildDeterministicAcrossThreadCounts(t *testing.T) {
	// The simulated thread count changes the data-parallel/thread-parallel
	// switchover but must not change correctness; and for a fixed thread
	// count the build must be bit-deterministic.
	d := data.Cosmo(4000, 11)
	a := Build(d.Points, nil, Options{Threads: 4})
	b := Build(d.Points, nil, Options{Threads: 4})
	if len(a.nodes) != len(b.nodes) {
		t.Fatal("same options produced different trees")
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			t.Fatalf("node %d differs between identical builds", i)
		}
	}
	for i := range a.ids.Len() {
		if a.ids.At(i) != b.ids.At(i) {
			t.Fatal("packing order differs between identical builds")
		}
	}
}

func TestBuildWithCustomIDs(t *testing.T) {
	d := data.Uniform(100, 2, 4)
	ids := make([]int64, 100)
	for i := range ids {
		ids[i] = int64(1000 + i)
	}
	tr := Build(d.Points, ids, Options{})
	res := tr.KNN(d.Points.At(17), 1)
	if res[0].ID != 1017 {
		t.Fatalf("nearest to point 17 = id %d, want 1017", res[0].ID)
	}
}

func TestBuildPanicsOnIDLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ids did not panic")
		}
	}()
	Build(geom.NewPoints(5, 2), make([]int64, 3), Options{})
}

func TestKNNMatchesBruteForceUniform(t *testing.T) {
	d := data.Uniform(2000, 3, 5)
	tr := Build(d.Points, nil, Options{})
	s := tr.NewSearcher()
	for qi := 0; qi < 50; qi++ {
		q := d.Points.At(qi * 13)
		got, _ := s.Search(q, 5, Inf2, nil)
		want := bruteKNN(d.Points, q, 5)
		if !sameNeighborDistances(got, want) {
			t.Fatalf("query %d: got %v want %v", qi, got, want)
		}
	}
}

func TestKNNMatchesBruteForceAllDatasets(t *testing.T) {
	for _, name := range []string{"cosmo", "plasma", "dayabay", "sdss10"} {
		d, _ := data.ByName(name, 1500, 6)
		tr := Build(d.Points, nil, Options{Threads: 2})
		s := tr.NewSearcher()
		rng := data.NewRNG(1)
		for qi := 0; qi < 30; qi++ {
			q := d.Points.At(rng.Intn(1500))
			got, _ := s.Search(q, 7, Inf2, nil)
			want := bruteKNN(d.Points, q, 7)
			if !sameNeighborDistances(got, want) {
				t.Fatalf("%s query %d: got %v want %v", name, qi, got, want)
			}
		}
	}
}

func TestKNNPropertyRandomQueries(t *testing.T) {
	d := data.Cosmo(1200, 21)
	tr := Build(d.Points, nil, Options{})
	s := tr.NewSearcher()
	f := func(qx, qy, qz float32, kRaw uint8) bool {
		k := int(kRaw%12) + 1
		q := []float32{
			float32(math.Mod(math.Abs(float64(qx)), 1)),
			float32(math.Mod(math.Abs(float64(qy)), 1)),
			float32(math.Mod(math.Abs(float64(qz)), 1)),
		}
		got, _ := s.Search(q, k, Inf2, nil)
		want := bruteKNN(d.Points, q, k)
		return sameNeighborDistances(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNWithRadiusBound(t *testing.T) {
	d := data.Uniform(2000, 3, 8)
	tr := Build(d.Points, nil, Options{})
	s := tr.NewSearcher()
	q := []float32{0.5, 0.5, 0.5}
	r2 := float32(0.01)
	got, _ := s.Search(q, 10, r2, nil)
	// Oracle: brute force filtered by radius.
	want := bruteKNN(d.Points, q, 10)
	filtered := want[:0]
	for _, nb := range want {
		if nb.Dist2 < r2 {
			filtered = append(filtered, nb)
		}
	}
	if !sameNeighborDistances(got, filtered) {
		t.Fatalf("radius-bounded: got %v want %v", got, filtered)
	}
	for _, nb := range got {
		if nb.Dist2 >= r2 {
			t.Fatalf("result %v outside radius %v", nb, r2)
		}
	}
}

func TestKNNRadiusBoundPrunesWork(t *testing.T) {
	// §III-B step 4: the r' bound received with a remote query prunes most
	// of the search space.
	d := data.Cosmo(20000, 9)
	tr := Build(d.Points, nil, Options{})
	s := tr.NewSearcher()
	q := d.Points.At(1234)
	_, unbounded := s.Search(q, 5, Inf2, nil)
	_, bounded := s.Search(q, 5, 1e-4, nil)
	if bounded.NodesVisited >= unbounded.NodesVisited {
		t.Fatalf("bounded search visited %d nodes, unbounded %d",
			bounded.NodesVisited, unbounded.NodesVisited)
	}
}

func TestKNNResultsSortedAndUnique(t *testing.T) {
	d := data.DayaBay(3000, 10) // heavy duplicates
	tr := Build(d.Points, nil, Options{})
	s := tr.NewSearcher()
	for qi := 0; qi < 20; qi++ {
		q := d.Points.At(qi * 101)
		got, _ := s.Search(q, 9, Inf2, nil)
		if len(got) != 9 {
			t.Fatalf("got %d results, want 9", len(got))
		}
		seen := map[int64]bool{}
		for i, nb := range got {
			if i > 0 && nb.Dist2 < got[i-1].Dist2 {
				t.Fatal("results not sorted")
			}
			if seen[nb.ID] {
				t.Fatalf("duplicate id %d in results", nb.ID)
			}
			seen[nb.ID] = true
		}
	}
}

func TestKNNOnDuplicatePoints(t *testing.T) {
	// All points identical: tree must degrade to one leaf and still answer.
	p := geom.NewPoints(100, 3)
	for i := 0; i < 100; i++ {
		p.SetAt(i, []float32{1, 2, 3})
	}
	tr := Build(p, nil, Options{BucketSize: 8})
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	res := tr.KNN([]float32{1, 2, 3}, 5)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	for _, nb := range res {
		if nb.Dist2 != 0 {
			t.Fatalf("distance %v, want 0", nb.Dist2)
		}
	}
}

func TestKNNHalfDuplicateData(t *testing.T) {
	// Daya Bay failure mode: big co-located blocks. Buckets may exceed the
	// nominal size only when points are exactly identical.
	rng := data.NewRNG(31)
	p := geom.NewPoints(2000, 2)
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			p.SetAt(i, []float32{5, 5})
		} else {
			p.SetAt(i, []float32{rng.Float32(), rng.Float32()})
		}
	}
	tr := Build(p, nil, Options{})
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	got := tr.KNN([]float32{5, 5}, 3)
	for _, nb := range got {
		if nb.Dist2 != 0 {
			t.Fatalf("nearest to the duplicate pile should be distance 0, got %v", nb)
		}
	}
}

func TestKLargerThanN(t *testing.T) {
	d := data.Uniform(5, 3, 10)
	tr := Build(d.Points, nil, Options{})
	res := tr.KNN([]float32{0, 0, 0}, 50)
	if len(res) != 5 {
		t.Fatalf("k>n returned %d results, want 5", len(res))
	}
}

func TestSearchKZero(t *testing.T) {
	d := data.Uniform(10, 3, 1)
	tr := Build(d.Points, nil, Options{})
	res, _ := tr.NewSearcher().Search([]float32{0, 0, 0}, 0, Inf2, nil)
	if len(res) != 0 {
		t.Fatal("k=0 must return nothing")
	}
}

func TestSearchDimensionMismatchPanics(t *testing.T) {
	d := data.Uniform(10, 3, 1)
	tr := Build(d.Points, nil, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	tr.NewSearcher().Search([]float32{0, 0}, 1, Inf2, nil)
}

func TestMaxRangePolicyBuildsValidTree(t *testing.T) {
	d := data.Cosmo(3000, 13)
	tr := Build(d.Points, nil, Options{SplitPolicy: sample.MaxRange})
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	s := tr.NewSearcher()
	q := d.Points.At(55)
	got, _ := s.Search(q, 5, Inf2, nil)
	want := bruteKNN(d.Points, q, 5)
	if !sameNeighborDistances(got, want) {
		t.Fatal("max-range tree gave wrong answers")
	}
}

func TestVarianceBeatsRangeOnSkewedData(t *testing.T) {
	// The paper's ablation (§III-A1): variance-based dimension selection
	// improves query performance (up to 43% on particle physics data).
	// Construct data where one dimension has a huge range but tiny
	// variance (outliers) — max-range repeatedly picks the useless dim.
	rng := data.NewRNG(17)
	n := 8000
	p := geom.NewPoints(n, 3)
	for i := 0; i < n; i++ {
		row := p.At(i)
		row[0] = rng.Float32()
		row[1] = rng.Float32()
		// Dim 2: 95% of mass in a thin slab, 5% spread over a slightly
		// wider range than dims 0-1. Max-range keeps picking dim 2 (its
		// range stays ≈1.2 after every split of the sparse tail) and
		// wastes levels; variance sees almost no spread and ignores it.
		if rng.Float64() < 0.95 {
			row[2] = rng.Float32() * 0.01
		} else {
			row[2] = rng.Float32() * 1.2
		}
	}
	tv := Build(p, nil, Options{SplitPolicy: sample.MaxVariance})
	tr := Build(p, nil, Options{SplitPolicy: sample.MaxRange})
	sv, sr := tv.NewSearcher(), tr.NewSearcher()
	var nv, nr int64
	for qi := 0; qi < 100; qi++ {
		q := p.At(qi * 37)
		_, stv := sv.Search(q, 5, Inf2, nil)
		_, str := sr.Search(q, 5, Inf2, nil)
		nv += stv.NodesVisited
		nr += str.NodesVisited
	}
	if nv >= nr {
		t.Fatalf("variance policy visited %d nodes, range policy %d; expected variance < range", nv, nr)
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	d := data.Uniform(1000, 3, 15)
	tr := Build(d.Points, nil, Options{})
	s := tr.NewSearcher()
	_, st := s.Search(d.Points.At(0), 5, Inf2, nil)
	if st.NodesVisited == 0 || st.PointsScanned == 0 || st.HeapPushes < 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSearcherMeterAccumulates(t *testing.T) {
	d := data.Uniform(1000, 3, 16)
	tr := Build(d.Points, nil, Options{})
	s := tr.NewSearcher()
	var m simtime.Meter
	s.Meter = &m
	_, st := s.Search(d.Points.At(1), 5, Inf2, nil)
	if m.Units(simtime.KNodeVisit) != st.NodesVisited {
		t.Fatal("meter node visits != stats")
	}
	if m.Units(simtime.KDist) != st.PointsScanned*3 {
		t.Fatal("meter dist units != points*dims")
	}
}

func TestBuildMetersPhases(t *testing.T) {
	rec := simtime.NewRecorder(4)
	d := data.Uniform(20000, 3, 17)
	Build(d.Points, nil, Options{Threads: 4, Recorder: rec})
	for _, phase := range []string{PhaseDataParallel, PhaseThreadParallel, PhasePack} {
		p := rec.Get(phase)
		if p == nil {
			t.Fatalf("phase %q not recorded", phase)
		}
		var total int64
		for i := 0; i < 4; i++ {
			for k := simtime.Kind(0); k < 8; k++ {
				total += p.Thread(i).Units(k)
			}
		}
		if total == 0 {
			t.Fatalf("phase %q has zero work", phase)
		}
	}
}

func TestThreadParallelLoadBalanced(t *testing.T) {
	// LPT assignment should keep per-thread work within ~2x of each other
	// on uniform data (near-perfect balance is the paper's Figure 6 claim).
	rec := simtime.NewRecorder(8)
	d := data.Uniform(50000, 3, 18)
	Build(d.Points, nil, Options{Threads: 8, Recorder: rec})
	p := rec.Get(PhaseThreadParallel)
	rates := simtime.DefaultRates()
	var minNS, maxNS float64
	for i := 0; i < 8; i++ {
		ns := p.Thread(i).ComputeNS(rates)
		if i == 0 || ns < minNS {
			minNS = ns
		}
		if ns > maxNS {
			maxNS = ns
		}
	}
	if minNS <= 0 || maxNS/minNS > 2.5 {
		t.Fatalf("thread imbalance: min=%v max=%v", minNS, maxNS)
	}
}

func TestStatsSums(t *testing.T) {
	d := data.Uniform(3000, 3, 19)
	tr := Build(d.Points, nil, Options{})
	s := tr.Stats()
	if s.Points != 3000 {
		t.Fatalf("points = %d", s.Points)
	}
	if s.Leaves == 0 || s.Nodes != 2*s.Leaves-1 {
		t.Fatalf("nodes=%d leaves=%d: binary tree must have 2L-1 nodes", s.Nodes, s.Leaves)
	}
	if s.MeanBucket <= 0 || s.MeanBucket > float64(s.MaxBucket) {
		t.Fatalf("bucket stats = %+v", s)
	}
}

func TestTreeBoxCoversAllPoints(t *testing.T) {
	d := data.Plasma(2000, 20)
	tr := Build(d.Points, nil, Options{})
	pts := tr.PackedPoints()
	for i := 0; i < pts.Len(); i++ {
		pt := pts.At(i)
		for dim := 0; dim < 3; dim++ {
			if pt[dim] < tr.Box.Min[dim] || pt[dim] > tr.Box.Max[dim] {
				t.Fatalf("point %d outside tree box", i)
			}
		}
	}
}

func TestQuickselect(t *testing.T) {
	rng := data.NewRNG(23)
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(400)
		coords := make([]float32, n)
		idx := make([]int32, n)
		for i := range coords {
			coords[i] = float32(rng.Intn(50))
			idx[i] = int32(i)
		}
		nth := rng.Intn(n)
		quickselect(coords, 1, 0, idx, nth)
		v := coords[idx[nth]]
		sorted := make([]float32, n)
		copy(sorted, coords)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if v != sorted[nth] {
			t.Fatalf("quickselect nth=%d got %v want %v", nth, v, sorted[nth])
		}
	}
}

func TestThreeWayPartition(t *testing.T) {
	coords := []float32{5, 1, 5, 9, 5, 2, 8}
	idx := []int32{0, 1, 2, 3, 4, 5, 6}
	lt, eq := threeWayPartition(coords, 1, 0, idx, 5)
	if lt != 2 || eq != 5 {
		t.Fatalf("lt=%d eq=%d, want 2,5", lt, eq)
	}
	for i, id := range idx {
		v := coords[id]
		switch {
		case i < lt && v >= 5:
			t.Fatalf("lt region has %v", v)
		case i >= lt && i < eq && v != 5:
			t.Fatalf("eq region has %v", v)
		case i >= eq && v <= 5:
			t.Fatalf("gt region has %v", v)
		}
	}
}
