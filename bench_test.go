package panda

// Benchmarks: one per table/figure of the paper's evaluation (§V), sized so
// `go test -bench=. -benchmem` completes in minutes on one core. These
// exercise the same code paths as cmd/panda-bench; run that binary for the
// full paper-style reports.

import (
	"testing"

	"panda/internal/baselines"
	"panda/internal/cluster"
	"panda/internal/core"
	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/sample"
)

// benchShard deals points round-robin to one rank.
func benchShard(pts geom.Points, ranks, rank int) (geom.Points, []int64) {
	out := geom.NewPoints(0, pts.Dims)
	var ids []int64
	for i := rank; i < pts.Len(); i += ranks {
		out = out.Append(pts.At(i))
		ids = append(ids, int64(i))
	}
	return out, ids
}

// BenchmarkTable1_DistributedConstruction measures the full distributed
// build (global tree + redistribution + local trees) on a 4-rank simulated
// cluster — the operation Table I times at up to 189B particles.
func BenchmarkTable1_DistributedConstruction(b *testing.B) {
	d := data.Cosmo(100_000, 2016)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluster.Run(4, 4, func(c *cluster.Comm) error {
			pts, ids := benchShard(d.Points, 4, c.Rank())
			_, err := core.BuildDistributed(c, pts, ids, kdtree.Options{})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_DistributedQuery measures the distributed query pipeline
// (route → local KNN → remote fan-out → merge) at Table I's 10% query load.
func BenchmarkTable1_DistributedQuery(b *testing.B) {
	d := data.Cosmo(100_000, 2016)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluster.Run(4, 4, func(c *cluster.Comm) error {
			pts, ids := benchShard(d.Points, 4, c.Rank())
			dt, err := core.BuildDistributed(c, pts, ids, kdtree.Options{})
			if err != nil {
				return err
			}
			nq := pts.Len() / 10
			_, _, err = dt.QueryBatch(pts.Slice(0, nq), ids[:nq], core.QueryOptions{K: 5})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_StrongScaling runs the Figure 4 workload at two rank counts
// so the relative cost of doubling the cluster is visible in wall time.
func BenchmarkFig4_StrongScaling(b *testing.B) {
	for _, ranks := range []int{2, 8} {
		b.Run(benchName("ranks", ranks), func(b *testing.B) {
			d := data.Cosmo(80_000, 2016)
			for i := 0; i < b.N; i++ {
				_, err := cluster.Run(ranks, 4, func(c *cluster.Comm) error {
					pts, ids := benchShard(d.Points, ranks, c.Rank())
					dt, err := core.BuildDistributed(c, pts, ids, kdtree.Options{})
					if err != nil {
						return err
					}
					nq := pts.Len() / 4
					_, _, err = dt.QueryBatch(pts.Slice(0, nq), ids[:nq], core.QueryOptions{K: 5})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5_WeakScaling keeps points-per-rank fixed while growing the
// cluster (the Figure 5(a) regime).
func BenchmarkFig5_WeakScaling(b *testing.B) {
	for _, ranks := range []int{2, 4} {
		b.Run(benchName("ranks", ranks), func(b *testing.B) {
			d := data.Cosmo(25_000*ranks, 2016)
			for i := 0; i < b.N; i++ {
				_, err := cluster.Run(ranks, 4, func(c *cluster.Comm) error {
					pts, ids := benchShard(d.Points, ranks, c.Rank())
					_, err := core.BuildDistributed(c, pts, ids, kdtree.Options{})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6_LocalConstruction measures single-node kd-tree construction
// (Figure 6(a)'s unit of work) on the cosmo_thin-style workload.
func BenchmarkFig6_LocalConstruction(b *testing.B) {
	d := data.Cosmo(200_000, 2016)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kdtree.Build(d.Points, nil, kdtree.Options{})
	}
}

// BenchmarkFig6_LocalQuery measures the Algorithm 1 query kernel
// (Figure 6(b)'s unit of work); reported per query.
func BenchmarkFig6_LocalQuery(b *testing.B) {
	d := data.Cosmo(200_000, 2016)
	tree := kdtree.Build(d.Points, nil, kdtree.Options{})
	s := tree.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(d.Points.At(i%d.Points.Len()), 5, kdtree.Inf2, nil)
	}
}

// BenchmarkFig7_Construction compares the three construction policies
// (Figure 7(a)).
func BenchmarkFig7_Construction(b *testing.B) {
	d := data.Cosmo(200_000, 2016)
	b.Run("PANDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kdtree.Build(d.Points, nil, kdtree.Options{})
		}
	})
	b.Run("FLANN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.BuildFLANN(d.Points, nil, 1)
		}
	})
	b.Run("ANN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselines.BuildANN(d.Points, nil)
		}
	})
}

// BenchmarkFig7_Query compares per-query cost across the three trees
// (Figure 7(b)).
func BenchmarkFig7_Query(b *testing.B) {
	d := data.Cosmo(200_000, 2016)
	trees := map[string]*kdtree.Tree{
		"PANDA": kdtree.Build(d.Points, nil, kdtree.Options{}),
		"FLANN": baselines.BuildFLANN(d.Points, nil, 1),
		"ANN":   baselines.BuildANN(d.Points, nil),
	}
	for _, name := range []string{"PANDA", "FLANN", "ANN"} {
		b.Run(name, func(b *testing.B) {
			s := trees[name].NewSearcher()
			for i := 0; i < b.N; i++ {
				s.Search(d.Points.At(i%d.Points.Len()), 5, kdtree.Inf2, nil)
			}
		})
	}
}

// BenchmarkTable2_Fig8_SharedTreeQuery measures shared-tree query
// throughput on the SDSS photometry workloads (Figure 8(a), k=10).
func BenchmarkTable2_Fig8_SharedTreeQuery(b *testing.B) {
	for _, gen := range []string{"sdss10", "sdss15"} {
		b.Run(gen, func(b *testing.B) {
			build, _ := data.ByName(gen, 100_000, 2016)
			queries, _ := data.ByName(gen, 10_000, 2017)
			tree := kdtree.Build(build.Points, nil, kdtree.Options{})
			s := tree.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Search(queries.Points.At(i%queries.Points.Len()), 10, kdtree.Inf2, nil)
			}
		})
	}
}

// BenchmarkFig8c_DistributedQueryKNL runs the distributed-tree KNL scaling
// workload (Figure 8(c)) at 8 simulated nodes.
func BenchmarkFig8c_DistributedQueryKNL(b *testing.B) {
	d := data.Cosmo(100_000, 2016)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluster.Run(8, 4, func(c *cluster.Comm) error {
			pts, ids := benchShard(d.Points, 8, c.Rank())
			dt, err := core.BuildDistributed(c, pts, ids, kdtree.Options{})
			if err != nil {
				return err
			}
			nq := pts.Len() / 2
			_, _, err = dt.QueryBatch(pts.Slice(0, nq), ids[:nq], core.QueryOptions{K: 10})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScience_Classification measures the Daya Bay classification
// pipeline end to end (§V-C) per classified record.
func BenchmarkScience_Classification(b *testing.B) {
	d := data.DayaBay(50_000, 2016)
	tree := kdtree.Build(d.Points.Slice(0, 40_000), nil, kdtree.Options{})
	s := tree.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := 40_000 + i%10_000
		nbrs, _ := s.Search(d.Points.At(q), 5, kdtree.Inf2, nil)
		MajorityVote(nbrs, func(id int64) uint8 { return d.Labels[id] })
	}
}

// BenchmarkAblationBinSearch compares the paper's two-level sub-interval
// scan (the block kernel tree construction runs) against binary search for
// histogram bin location (§III-A1's 42%): one HistogramInto pass over 4096
// points per op, reported per point.
func BenchmarkAblationBinSearch(b *testing.B) {
	rng := data.NewRNG(7)
	vals := make([]float32, 1024)
	for i := range vals {
		vals[i] = rng.Float32()
	}
	iv := sample.NewIntervals(vals)
	coords := make([]float32, 4096)
	idx := make([]int32, len(coords))
	for i := range coords {
		coords[i] = rng.Float32()
		idx[i] = int32(i)
	}
	counts := make([]int64, iv.Bins())
	for _, c := range []struct {
		name    string
		useScan bool
	}{{"Scan", true}, {"Binary", false}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				iv.HistogramInto(counts, coords, 1, 0, idx, c.useScan)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/point")
		})
	}
}

// BenchmarkAblationBucketSize sweeps leaf sizes around the paper's best
// (32), measuring the query side where the tradeoff lives.
func BenchmarkAblationBucketSize(b *testing.B) {
	d := data.Cosmo(200_000, 2016)
	for _, bs := range []int{8, 32, 128} {
		b.Run(benchName("bucket", bs), func(b *testing.B) {
			tree := kdtree.Build(d.Points, nil, kdtree.Options{BucketSize: bs})
			s := tree.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Search(d.Points.At(i%d.Points.Len()), 5, kdtree.Inf2, nil)
			}
		})
	}
}

// BenchmarkAblationSplitDim compares query cost under the two
// split-dimension policies on silent-channel detector data (§III-A1's 43%).
func BenchmarkAblationSplitDim(b *testing.B) {
	d := data.DayaBay(100_000, 2016)
	for _, pol := range []sample.SplitPolicy{sample.MaxVariance, sample.MaxRange} {
		b.Run(pol.String(), func(b *testing.B) {
			tree := kdtree.Build(d.Points, nil, kdtree.Options{SplitPolicy: pol})
			s := tree.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Search(d.Points.At(i%d.Points.Len()), 5, kdtree.Inf2, nil)
			}
		})
	}
}

// BenchmarkStrawman_LocalTreesEverywhere prices §I's no-redistribution
// baseline against PANDA's global tree on the same data and cluster.
func BenchmarkStrawman_LocalTreesEverywhere(b *testing.B) {
	d := data.Uniform(40_000, 3, 2016)
	b.Run("PANDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := cluster.Run(4, 2, func(c *cluster.Comm) error {
				pts, ids := benchShard(d.Points, 4, c.Rank())
				dt, err := core.BuildDistributed(c, pts, ids, kdtree.Options{})
				if err != nil {
					return err
				}
				nq := pts.Len() / 10
				_, _, err = dt.QueryBatch(pts.Slice(0, nq), ids[:nq], core.QueryOptions{K: 5})
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LocalTrees", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := cluster.Run(4, 2, func(c *cluster.Comm) error {
				pts, ids := benchShard(d.Points, 4, c.Rank())
				nq := pts.Len() / 10
				_, _, err := baselines.RunLocalTreesKNN(c, pts, ids, pts.Slice(0, nq), ids[:nq], 5)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
