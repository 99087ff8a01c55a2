package core

import (
	"runtime"
	"testing"

	"panda/internal/cluster"
	"panda/internal/data"
	"panda/internal/kdtree"
	"panda/internal/par"
)

// partitionStrictRef is the seed's append-based implementation, kept as the
// order-preserving reference the counted scatter must match exactly.
func partitionStrictRef(coords []float32, ids []int64, dims, dim int, v float32) (lc []float32, lids []int64, rc []float32, rids []int64) {
	n := len(coords) / dims
	for i := 0; i < n; i++ {
		row := coords[i*dims : (i+1)*dims]
		if row[dim] < v {
			lc = append(lc, row...)
			lids = append(lids, ids[i])
		} else {
			rc = append(rc, row...)
			rids = append(rids, ids[i])
		}
	}
	return
}

func partitionInput(n, dims int) ([]float32, []int64) {
	coords := make([]float32, n*dims)
	ids := make([]int64, n)
	for i := range coords {
		coords[i] = float32((i*48271)%1000) / 999
	}
	for i := range ids {
		ids[i] = int64(i) | 7<<40
	}
	return coords, ids
}

// TestPartitionStrictMatchesReference: identical output (values and order)
// to the append loop, for any worker count, including the all-left and
// all-right edges.
func TestPartitionStrictMatchesReference(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const n, dims, dim = 30_000, 3, 1
	coords, ids := partitionInput(n, dims)
	for _, v := range []float32{0.5, 0.0, 2.0, 0.001} {
		wantLC, wantLID, wantRC, wantRID := partitionStrictRef(coords, ids, dims, dim, v)
		for _, workers := range []int{1, 2, 8} {
			lc, lids, rc, rids := partitionStrict(coords, ids, dims, dim, v, par.NewPool(workers))
			if len(lc) != len(wantLC) || len(rc) != len(wantRC) {
				t.Fatalf("v=%v workers=%d: sizes %d/%d, want %d/%d", v, workers, len(lc), len(rc), len(wantLC), len(wantRC))
			}
			for i := range wantLC {
				if lc[i] != wantLC[i] {
					t.Fatalf("v=%v workers=%d: lc[%d] differs", v, workers, i)
				}
			}
			for i := range wantRC {
				if rc[i] != wantRC[i] {
					t.Fatalf("v=%v workers=%d: rc[%d] differs", v, workers, i)
				}
			}
			for i := range wantLID {
				if lids[i] != wantLID[i] {
					t.Fatalf("v=%v workers=%d: lids[%d] differs", v, workers, i)
				}
			}
			for i := range wantRID {
				if rids[i] != wantRID[i] {
					t.Fatalf("v=%v workers=%d: rids[%d] differs", v, workers, i)
				}
			}
		}
	}
}

// TestMomentsInvariantToWorkers: the fixed-chunk summation tree must give
// bit-equal float64 moments for any worker count.
func TestMomentsInvariantToWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	d := data.Cosmo(123_457, 5)
	s1, q1 := moments(d.Points.Coords, d.Points.Dims, par.NewPool(1))
	s8, q8 := moments(d.Points.Coords, d.Points.Dims, par.NewPool(8))
	for i := range s1 {
		if s1[i] != s8[i] || q1[i] != q8[i] {
			t.Fatalf("dim %d: moments differ across worker counts: (%v,%v) vs (%v,%v)",
				i, s1[i], q1[i], s8[i], q8[i])
		}
	}
}

// TestDistributedBuildInvariantToRealWorkers: the full distributed build —
// global splits from chunked moments, histogram reduction, redistribution,
// local trees — must produce byte-identical trees whether the per-rank
// pools run on one real core or eight.
func TestDistributedBuildInvariantToRealWorkers(t *testing.T) {
	build := func(gomax int) ([]GlobalNode, [][]byte) {
		old := runtime.GOMAXPROCS(gomax)
		defer runtime.GOMAXPROCS(old)
		d := data.Cosmo(6_000, 77)
		var nodes []GlobalNode
		locals := make([][]byte, 4)
		_, err := cluster.Run(4, 4, func(c *cluster.Comm) error {
			pts, ids := shard(d.Points, 4, c.Rank())
			dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
			if err != nil {
				return err
			}
			raw := dt.Local.Raw()
			buf := append([]byte(nil), raw.NodesLE...)
			for _, f := range raw.Coords {
				buf = append(buf, byte(uint32(f)), byte(uint32(f)>>8))
			}
			for _, id := range raw.IDs.Int64s() {
				buf = append(buf, byte(id), byte(id>>32))
			}
			locals[c.Rank()] = buf
			if c.Rank() == 0 {
				nodes = append(nodes, dt.Global.Nodes...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return nodes, locals
	}
	nodes1, locals1 := build(1)
	nodes8, locals8 := build(8)
	if len(nodes1) != len(nodes8) {
		t.Fatal("global tree size differs across real worker counts")
	}
	for i := range nodes1 {
		if nodes1[i] != nodes8[i] {
			t.Fatalf("global node %d differs: %+v vs %+v", i, nodes1[i], nodes8[i])
		}
	}
	for r := range locals1 {
		if len(locals1[r]) != len(locals8[r]) {
			t.Fatalf("rank %d local tree size differs", r)
		}
		for i := range locals1[r] {
			if locals1[r][i] != locals8[r][i] {
				t.Fatalf("rank %d local tree byte %d differs", r, i)
			}
		}
	}
}

// BenchmarkPartitionStrict prices the redistribute partition (the satellite
// fix: counting pass + exactly-sized buffers instead of per-row appends).
// Run with -benchmem; the reference's alloc count is the seed's behavior.
func BenchmarkPartitionStrict(b *testing.B) {
	const n, dims, dim = 200_000, 3, 1
	coords, ids := partitionInput(n, dims)
	b.Run("counted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partitionStrict(coords, ids, dims, dim, 0.5, nil)
		}
	})
	b.Run("append-seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partitionStrictRef(coords, ids, dims, dim, 0.5)
		}
	})
}
