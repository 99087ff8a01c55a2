package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"panda/internal/cluster"
	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/simtime"
)

// shard splits a dataset round-robin across p ranks the way independent
// readers would ("each node reads in an approximately equal number of
// points (in no particular order)").
func shard(d geom.Points, p, rank int) (geom.Points, []int64) {
	out := geom.NewPoints(0, d.Dims)
	var ids []int64
	for i := rank; i < d.Len(); i += p {
		out = out.Append(d.At(i))
		ids = append(ids, int64(i))
	}
	return out, ids
}

// bruteKNN is the float32 oracle over the full dataset.
func bruteKNN(pts geom.Points, q []float32, k int) []kdtree.Neighbor {
	all := make([]kdtree.Neighbor, pts.Len())
	for i := 0; i < pts.Len(); i++ {
		all[i] = kdtree.Neighbor{ID: int64(i), Dist2: geom.Dist2(q, pts.At(i))}
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

// buildOn runs a distributed build over p ranks and returns each rank's
// tree plus recorders.
func buildOn(t *testing.T, d geom.Points, p, threads int) ([]*DistTree, []*simtime.Recorder) {
	t.Helper()
	trees := make([]*DistTree, p)
	recs, err := cluster.Run(p, threads, func(c *cluster.Comm) error {
		pts, ids := shard(d, p, c.Rank())
		dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		trees[c.Rank()] = dt
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return trees, recs
}

func TestBuildGlobalTreeSingleRank(t *testing.T) {
	g, err := buildGlobalTree(1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Ranks() != 1 || g.Levels() != 0 {
		t.Fatalf("ranks=%d levels=%d", g.Ranks(), g.Levels())
	}
	if got := g.Owner([]float32{1, 2, 3}, nil); got != 0 {
		t.Fatalf("owner = %d", got)
	}
}

func TestBuildGlobalTreeMissingSplit(t *testing.T) {
	if _, err := buildGlobalTree(2, 3, map[[2]int]split{}); err == nil {
		t.Fatal("missing split must error")
	}
}

func TestGlobalTreeOwnerPartition(t *testing.T) {
	// Hand-built 4-rank tree over the unit square.
	splits := map[[2]int]split{
		{0, 4}: {dim: 0, median: 0.5},
		{0, 2}: {dim: 1, median: 0.5},
		{2, 4}: {dim: 1, median: 0.5},
	}
	g, err := buildGlobalTree(4, 2, splits)
	if err != nil {
		t.Fatal(err)
	}
	if g.Levels() != 2 {
		t.Fatalf("levels = %d", g.Levels())
	}
	cases := []struct {
		q    []float32
		rank int
	}{
		{[]float32{0.2, 0.2}, 0},
		{[]float32{0.2, 0.8}, 1},
		{[]float32{0.8, 0.2}, 2},
		{[]float32{0.8, 0.8}, 3},
		{[]float32{0.5, 0.5}, 3}, // boundary goes right (half-open)
	}
	for _, tc := range cases {
		if got := g.Owner(tc.q, nil); got != tc.rank {
			t.Errorf("Owner(%v) = %d, want %d", tc.q, got, tc.rank)
		}
	}
	// Box consistency: every rank's box must contain a probe owned by it.
	for r := 0; r < 4; r++ {
		for _, tc := range cases {
			inBox := g.Boxes[r].Contains(tc.q)
			if inBox != (tc.rank == r) {
				t.Errorf("box/owner disagree for %v rank %d", tc.q, r)
			}
		}
	}
}

func TestGlobalTreeRanksWithin(t *testing.T) {
	splits := map[[2]int]split{
		{0, 4}: {dim: 0, median: 0.5},
		{0, 2}: {dim: 1, median: 0.5},
		{2, 4}: {dim: 1, median: 0.5},
	}
	g, _ := buildGlobalTree(4, 2, splits)
	// Query near the center of rank 0's quadrant with a tiny radius: no
	// remote ranks.
	got := g.RanksWithin([]float32{0.25, 0.25}, 0.001, 0, nil, nil)
	if len(got) != 0 {
		t.Fatalf("tiny ball reached %v", got)
	}
	// Query near the 4-corner point (0.5, 0.5) with a radius covering all.
	got = g.RanksWithin([]float32{0.45, 0.45}, 0.01, 0, nil, nil)
	if len(got) != 3 {
		t.Fatalf("corner ball reached %v, want all 3 others", got)
	}
	// Ball crossing only the x boundary.
	got = g.RanksWithin([]float32{0.45, 0.25}, 0.004, 0, nil, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("x-boundary ball reached %v, want [2]", got)
	}
	// Exclusion honoured.
	for _, r := range g.RanksWithin([]float32{0.5, 0.5}, 1, 2, nil, nil) {
		if r == 2 {
			t.Fatal("excluded rank returned")
		}
	}
}

func TestGlobalTreeValidateCatchesDuplicates(t *testing.T) {
	g := &GlobalTree{
		Nodes: []GlobalNode{
			{Dim: 0, Median: 0.5, Left: 1, Right: 2},
			{Dim: -1, Rank: 0},
			{Dim: -1, Rank: 0},
		},
		Dims:  1,
		Boxes: make([]geom.Box, 2),
	}
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate leaf ranks must fail validation")
	}
}

func TestBuildDistributedConservesPoints(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		d := data.Cosmo(4000, 42)
		trees, _ := buildOn(t, d.Points, p, 2)
		total := 0
		seen := make(map[int64]int)
		for _, dt := range trees {
			total += dt.Local.Len()
			for _, id := range dt.Local.IDs().Int64s() {
				seen[id]++
			}
		}
		if total != 4000 {
			t.Fatalf("p=%d: %d points after redistribution, want 4000", p, total)
		}
		for id, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("p=%d: id %d appears %d times", p, id, cnt)
			}
		}
	}
}

func TestBuildDistributedOwnershipMatchesDomains(t *testing.T) {
	// Every point must land on the rank whose global-tree domain contains
	// it — the invariant that makes single-owner routing correct.
	d := data.Plasma(3000, 7)
	trees, _ := buildOn(t, d.Points, 4, 1)
	g := trees[0].Global
	for r, dt := range trees {
		pts := dt.Local.PackedPoints()
		for i := 0; i < pts.Len(); i++ {
			if owner := g.Owner(pts.At(i), nil); owner != r {
				t.Fatalf("rank %d holds point owned by rank %d", r, owner)
			}
		}
	}
}

func TestBuildDistributedBalance(t *testing.T) {
	// The sampled-histogram split should keep shard sizes within ~25% of
	// the mean on smooth data.
	d := data.Uniform(16000, 3, 9)
	trees, _ := buildOn(t, d.Points, 8, 1)
	mean := 16000 / 8
	for r, dt := range trees {
		n := dt.Local.Len()
		if n < mean*3/4 || n > mean*5/4 {
			t.Fatalf("rank %d owns %d points (mean %d)", r, n, mean)
		}
	}
}

func TestBuildDistributedGlobalTreesIdentical(t *testing.T) {
	d := data.Cosmo(2000, 17)
	trees, _ := buildOn(t, d.Points, 4, 1)
	ref := trees[0].Global
	for r := 1; r < 4; r++ {
		g := trees[r].Global
		if len(g.Nodes) != len(ref.Nodes) {
			t.Fatalf("rank %d global tree has %d nodes, rank 0 has %d", r, len(g.Nodes), len(ref.Nodes))
		}
		for i := range g.Nodes {
			if g.Nodes[i] != ref.Nodes[i] {
				t.Fatalf("rank %d global node %d differs", r, i)
			}
		}
	}
}

func TestBuildDistributedNonPowerOfTwo(t *testing.T) {
	for _, p := range []int{3, 5, 6} {
		d := data.Uniform(6000, 3, 23)
		trees, _ := buildOn(t, d.Points, p, 1)
		total := 0
		for _, dt := range trees {
			total += dt.Local.Len()
			if err := dt.Global.Validate(); err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
		}
		if total != 6000 {
			t.Fatalf("p=%d: conserved %d/6000", p, total)
		}
	}
}

func TestBuildDistributedMeterPhases(t *testing.T) {
	d := data.Cosmo(4000, 3)
	_, recs := buildOn(t, d.Points, 4, 2)
	for r, rec := range recs {
		for _, phase := range []string{PhaseGlobalTree, PhaseRedistribute, kdtree.PhaseDataParallel, kdtree.PhasePack} {
			if rec.Get(phase) == nil {
				t.Fatalf("rank %d missing phase %q", r, phase)
			}
		}
	}
	rep := simtime.Aggregate(simtime.DefaultRates(), recs)
	if pt, _ := rep.Find(PhaseRedistribute); pt.CommSeconds <= 0 {
		t.Fatal("redistribution recorded no communication")
	}
}

func TestBuildDistributedDimsMismatch(t *testing.T) {
	_, err := cluster.Run(2, 1, func(c *cluster.Comm) error {
		dims := 3
		if c.Rank() == 1 {
			dims = 2
		}
		_, err := BuildDistributed(c, geom.NewPoints(10, dims), nil, kdtree.Options{})
		return err
	})
	if err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

// runDistributedKNN builds on p ranks, queries qFrac of the points, and
// checks exactness against brute force.
func runDistributedKNN(t *testing.T, d geom.Points, p, threads, k int, qopts QueryOptions) {
	t.Helper()
	type rankOut struct {
		qids    []int64
		results []Result
	}
	outs := make([]rankOut, p)
	var mu sync.Mutex
	_, err := cluster.Run(p, threads, func(c *cluster.Comm) error {
		pts, ids := shard(d, p, c.Rank())
		dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		// Each rank queries a slice of its original shard (before
		// redistribution — queries can arrive anywhere).
		nq := pts.Len() / 4
		queries := pts.Slice(0, nq)
		qids := ids[:nq]
		// Per-rank copy: the closure runs once per rank concurrently, and
		// writing the shared captured qopts would race.
		qo := qopts
		qo.K = k
		res, _, err := dt.QueryBatch(queries, qids, qo)
		if err != nil {
			return err
		}
		mu.Lock()
		outs[c.Rank()] = rankOut{qids: qids, results: res}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for r := 0; r < p; r++ {
		for i, res := range outs[r].results {
			if res.QID != outs[r].qids[i] {
				t.Fatalf("rank %d result %d has qid %d, want %d", r, i, res.QID, outs[r].qids[i])
			}
			q := d.At(int(res.QID))
			want := bruteKNN(d, q, k)
			if len(res.Neighbors) != len(want) {
				t.Fatalf("rank %d query %d: %d neighbors, want %d", r, i, len(res.Neighbors), len(want))
			}
			for j := range want {
				if res.Neighbors[j].Dist2 != want[j].Dist2 {
					t.Fatalf("rank %d query %d neighbor %d: dist %v, want %v",
						r, i, j, res.Neighbors[j].Dist2, want[j].Dist2)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no queries checked")
	}
}

func TestDistributedKNNExactUniform(t *testing.T) {
	runDistributedKNN(t, data.Uniform(2000, 3, 31).Points, 4, 2, 5, QueryOptions{})
}

func TestDistributedKNNExactCosmo(t *testing.T) {
	runDistributedKNN(t, data.Cosmo(2400, 33).Points, 4, 1, 5, QueryOptions{})
}

func TestDistributedKNNExactPlasma(t *testing.T) {
	runDistributedKNN(t, data.Plasma(2000, 35).Points, 8, 1, 3, QueryOptions{})
}

func TestDistributedKNNExactDayaBay(t *testing.T) {
	// 10-D co-located records: the hard case for domain pruning.
	runDistributedKNN(t, data.DayaBay(1600, 37).Points, 4, 1, 5, QueryOptions{})
}

func TestDistributedKNNExactNonPowerOfTwoRanks(t *testing.T) {
	runDistributedKNN(t, data.Uniform(1800, 3, 39).Points, 3, 1, 4, QueryOptions{})
}

func TestDistributedKNNSmallBatches(t *testing.T) {
	// Multiple pipeline rounds (batch smaller than the per-rank query
	// count) must return the same exact results.
	runDistributedKNN(t, data.Uniform(1600, 3, 41).Points, 4, 1, 5, QueryOptions{BatchSize: 16})
}

func TestDistributedKNNSingleRank(t *testing.T) {
	runDistributedKNN(t, data.Cosmo(1000, 43).Points, 1, 2, 5, QueryOptions{})
}

func TestDistributedKNNKLargerThanLocalShard(t *testing.T) {
	// k exceeds some ranks' shard sizes: owners must fan out with r'=inf
	// and still produce exact global results.
	d := data.Uniform(64, 2, 45).Points
	runDistributedKNN(t, d, 4, 1, 20, QueryOptions{})
}

func TestQueryBatchValidation(t *testing.T) {
	d := data.Uniform(200, 3, 47)
	_, err := cluster.Run(2, 1, func(c *cluster.Comm) error {
		pts, ids := shard(d.Points, 2, c.Rank())
		dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		if _, _, err := dt.QueryBatch(pts, ids, QueryOptions{K: 0}); err == nil {
			return fmt.Errorf("K=0 accepted")
		}
		if _, _, err := dt.QueryBatch(geom.NewPoints(1, 2), nil, QueryOptions{K: 1}); err == nil {
			return fmt.Errorf("dims mismatch accepted")
		}
		if _, _, err := dt.QueryBatch(pts, ids[:1], QueryOptions{K: 1}); err == nil {
			return fmt.Errorf("qid length mismatch accepted")
		}
		// All ranks still need aligned collectives for the valid run.
		_, _, err = dt.QueryBatch(pts, ids, QueryOptions{K: 2})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueryTraceCounters(t *testing.T) {
	d := data.Uniform(4000, 3, 49)
	traces := make([]*QueryTrace, 4)
	_, err := cluster.Run(4, 1, func(c *cluster.Comm) error {
		pts, ids := shard(d.Points, 4, c.Rank())
		dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		_, tr, err := dt.QueryBatch(pts, ids, QueryOptions{K: 5})
		if err != nil {
			return err
		}
		traces[c.Rank()] = tr
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var owned, queries int64
	for _, tr := range traces {
		owned += tr.Owned
		queries += tr.Queries
	}
	if owned != queries {
		t.Fatalf("owned %d != queries %d (routing lost queries)", owned, queries)
	}
	// On uniform data with 4 ranks, a small but nonzero fraction of
	// queries crosses domain boundaries.
	var sent int64
	for _, tr := range traces {
		sent += tr.SentRemote
	}
	if sent == 0 {
		t.Fatal("no query ever consulted a remote rank (suspicious)")
	}
	if sent == queries {
		t.Fatal("every query consulted remote ranks (r' pruning broken)")
	}
}

func TestQueryPhasesRecorded(t *testing.T) {
	d := data.Uniform(2000, 3, 51)
	recs := func() []*simtime.Recorder {
		recs, err := cluster.Run(4, 2, func(c *cluster.Comm) error {
			pts, ids := shard(d.Points, 4, c.Rank())
			dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
			if err != nil {
				return err
			}
			_, _, err = dt.QueryBatch(pts, ids, QueryOptions{K: 5})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}()
	rep := simtime.Aggregate(simtime.DefaultRates(), recs)
	for _, phase := range []string{PhaseFindOwner, PhaseLocalKNN, PhaseIdentifyRemote, PhaseRemoteKNN} {
		pt, ok := rep.Find(phase)
		if !ok {
			t.Fatalf("phase %q missing", phase)
		}
		if phase == PhaseLocalKNN && pt.ComputeSeconds <= 0 {
			t.Fatal("local KNN recorded no compute")
		}
	}
	// Local KNN must dominate remote KNN on uniform low-dim data
	// (paper: local 40-65%, remote ≤3% for cosmo/plasma).
	local, _ := rep.Find(PhaseLocalKNN)
	remote, _ := rep.Find(PhaseRemoteKNN)
	if remote.ComputeSeconds >= local.ComputeSeconds {
		t.Fatalf("remote KNN compute %v ≥ local %v", remote.ComputeSeconds, local.ComputeSeconds)
	}
}

func TestDistributedMatchesSingleRankResults(t *testing.T) {
	// Same data, same queries: P=4 must produce byte-identical neighbor
	// sets to P=1 (modulo nothing — exact KNN with deterministic ties).
	d := data.Cosmo(1500, 53)
	get := func(p int) map[int64][]kdtree.Neighbor {
		out := make(map[int64][]kdtree.Neighbor)
		var mu sync.Mutex
		_, err := cluster.Run(p, 1, func(c *cluster.Comm) error {
			pts, ids := shard(d.Points, p, c.Rank())
			dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
			if err != nil {
				return err
			}
			res, _, err := dt.QueryBatch(pts, ids, QueryOptions{K: 5})
			if err != nil {
				return err
			}
			mu.Lock()
			for _, r := range res {
				out[r.QID] = r.Neighbors
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := get(1), get(4)
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for qid, na := range a {
		nb := b[qid]
		if len(na) != len(nb) {
			t.Fatalf("qid %d: %d vs %d neighbors", qid, len(na), len(nb))
		}
		for i := range na {
			if na[i].Dist2 != nb[i].Dist2 {
				t.Fatalf("qid %d neighbor %d: %v vs %v", qid, i, na[i], nb[i])
			}
		}
	}
}
