package panda

// BenchmarkKNNBatch measures steady-state batched query throughput on the
// paper's two headline shapes: 3-D cosmology particles (§V-A) and 10-D Daya
// Bay detector records (§V-C), both at k=5. Reported per query. The
// single-thread runs are the acceptance gauge for the zero-allocation
// batched engine; the threaded runs exercise the chunked dynamic scheduler.

import (
	"fmt"
	"runtime"
	"testing"

	"panda/internal/data"
)

func benchKNNBatch(b *testing.B, gen string, n, nq, k, threads int) {
	d, err := data.ByName(gen, n, 2016)
	if err != nil {
		b.Fatal(err)
	}
	qd, err := data.ByName(gen, nq, 2017)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := Build(d.Points.Coords, d.Points.Dims, nil, &BuildOptions{Threads: threads})
	if err != nil {
		b.Fatal(err)
	}
	// Warm up once so pooled searchers and arenas exist before timing.
	if _, err := tree.KNNBatch(qd.Points.Coords, k); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tree.KNNBatch(qd.Points.Coords, k)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != nq {
			b.Fatalf("got %d results, want %d", len(res), nq)
		}
	}
	b.StopTimer()
	// Report per-query cost: ns/op divided by nq is the paper's metric.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nq), "ns/query")
}

func BenchmarkKNNBatch(b *testing.B) {
	b.Run("cosmo3d/t=1", func(b *testing.B) { benchKNNBatch(b, "cosmo", 200_000, 20_000, 5, 1) })
	b.Run("dayabay10d/t=1", func(b *testing.B) { benchKNNBatch(b, "dayabay", 100_000, 10_000, 5, 1) })
	b.Run("cosmo3d/t=4", func(b *testing.B) { benchKNNBatch(b, "cosmo", 200_000, 20_000, 5, 4) })
	b.Run("dayabay10d/t=4", func(b *testing.B) { benchKNNBatch(b, "dayabay", 100_000, 10_000, 5, 4) })
}

// BenchmarkKNNBatchSmall measures serving-sized engine calls: n = 1, 2, 4
// and 8 queries per KNNBatchFlatInto call with reused arenas, as the
// server's dispatcher makes them, on 1M 3-D cosmology points at k=8.
// Reported per call (ns/call, allocs/call) so the fixed per-call cost —
// the intercept across n — separates from the per-query search cost.
func BenchmarkKNNBatchSmall(b *testing.B) {
	const k = 8
	d, err := data.ByName("cosmo", 1_000_000, 2016)
	if err != nil {
		b.Fatal(err)
	}
	qd, err := data.ByName("cosmo", 4096, 2017)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := Build(d.Points.Coords, d.Points.Dims, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	dims, pool := d.Points.Dims, qd.Points.Coords
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cosmo3d/n=%d", n), func(b *testing.B) {
			var flat []Neighbor
			var offsets []int32
			calls := len(pool) / (n * dims)
			call := func(i int) {
				first := (i % calls) * n * dims
				flat, offsets, err = tree.KNNBatchFlatInto(pool[first:first+n*dims], k, flat, offsets)
				if err != nil {
					b.Fatal(err)
				}
			}
			call(0) // warm the pooled searcher and the arenas
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call(i)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/call")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/call")
		})
	}
}
