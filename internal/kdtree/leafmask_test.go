package kdtree

import (
	"reflect"
	"testing"

	"panda/internal/data"
	"panda/internal/geom"
)

// leafRun is everything one query set observes through the leaf kernel:
// every answer and every QueryStats, in query order.
type leafRun struct {
	knn    [][]Neighbor
	radius [][]Neighbor
	counts []int
	stats  []QueryStats
}

// runLeafKernel answers qs on tr with kernel as the leaf kernel: KNN at
// k = 1, 5, 32 (unbounded and capped at the k=32 answer's 16th distance),
// radius search and CountWithin at that same radius.
func runLeafKernel(tr *Tree, qs geom.Points, kernel func(q, rows []float32, stride, n int, out []float32, bound float32) uint64) leafRun {
	saved := leafMask
	leafMask = kernel
	defer func() { leafMask = saved }()
	var r leafRun
	s := tr.NewSearcher()
	for i := 0; i < qs.Len(); i++ {
		q := qs.At(i)
		var r2 float32
		for _, k := range []int{1, 5, 32} {
			res, st := s.Search(q, k, Inf2, nil)
			r.knn = append(r.knn, res)
			r.stats = append(r.stats, st)
			if k == 32 {
				r2 = res[15].Dist2
			}
		}
		res, st := s.Search(q, 32, r2, nil)
		r.knn = append(r.knn, res)
		r.stats = append(r.stats, st)
		res, st = s.RadiusSearch(q, r2, nil)
		r.radius = append(r.radius, res)
		r.stats = append(r.stats, st)
		n, st := s.CountWithin(q, r2)
		r.counts = append(r.counts, n)
		r.stats = append(r.stats, st)
	}
	return r
}

// TestLeafKernelSIMDMatchesGo: on a 10-D dayabay, a 3-D cosmo and a 2-D
// uniform tree, the dispatching leaf kernel (AVX2 where the CPU has it) and
// the pure-Go kernel give identical KNN and radius answers and identical
// QueryStats — the mask walk pushes the same candidates in the same order.
// Buckets of 100 points also run the 64-point block split.
func TestLeafKernelSIMDMatchesGo(t *testing.T) {
	byName := func(name string, n int, seed uint64) data.Dataset {
		d, err := data.ByName(name, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, tc := range []struct {
		name         string
		pts, queries data.Dataset
	}{
		{"dayabay10d", byName("dayabay", 20000, 3), byName("dayabay", 300, 99)},
		{"cosmo3d", byName("cosmo", 20000, 3), byName("cosmo", 300, 99)},
		{"uniform2d", data.Uniform(20000, 2, 3), data.Uniform(300, 2, 99)},
	} {
		d := tc.pts.Points
		// Half the queries are indexed points (distance-0 hits and ties).
		qs := geom.Points{Dims: d.Dims}
		qs.Coords = append(append(qs.Coords, tc.queries.Points.Coords...), d.Coords[:150*d.Dims]...)
		for _, bucket := range []int{0, 100} {
			tr := Build(d, nil, Options{Threads: 2, BucketSize: bucket})
			simd := runLeafKernel(tr, qs, geom.Dist2Mask)
			pure := runLeafKernel(tr, qs, geom.Dist2MaskGo)
			if !reflect.DeepEqual(simd, pure) {
				for i := range simd.stats {
					if simd.stats[i] != pure.stats[i] {
						t.Fatalf("%s bucket %d: call %d stats %+v, pure Go %+v", tc.name, bucket, i, simd.stats[i], pure.stats[i])
					}
				}
				t.Fatalf("%s bucket %d: answers differ between the SIMD and pure-Go leaf kernels", tc.name, bucket)
			}
		}
	}
}

// BenchmarkRadius times the radius leaf step: RadiusSearch and CountWithin
// on a 100k-point tree, each query at the radius of its 32nd nearest
// neighbour, on 3-D cosmo and 10-D dayabay.
func BenchmarkRadius(b *testing.B) {
	for _, tc := range []struct{ name, dataset string }{
		{"3d", "cosmo"},
		{"10d", "dayabay"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d, err := data.ByName(tc.dataset, 100000, 3)
			if err != nil {
				b.Fatal(err)
			}
			queries, err := data.ByName(tc.dataset, 1000, 99)
			if err != nil {
				b.Fatal(err)
			}
			tr := Build(d.Points, nil, Options{Threads: 2})
			s := tr.NewSearcher()
			qs := queries.Points
			r2 := make([]float32, qs.Len())
			for i := range r2 {
				res, _ := s.Search(qs.At(i), 32, Inf2, nil)
				r2[i] = res[31].Dist2
			}
			b.Run("radius", func(b *testing.B) {
				var out []Neighbor
				i := 0
				for b.Loop() {
					out, _ = s.RadiusSearch(qs.At(i), r2[i], out[:0])
					i = (i + 1) % len(r2)
				}
			})
			b.Run("count", func(b *testing.B) {
				i := 0
				for b.Loop() {
					s.CountWithin(qs.At(i), r2[i])
					i = (i + 1) % len(r2)
				}
			})
		})
	}
}
