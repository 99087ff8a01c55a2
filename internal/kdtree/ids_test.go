package kdtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"panda/internal/data"
)

// widen returns tr rebuilt around a wide id table holding the same ids.
func widen(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	raw := tr.Raw()
	raw.IDs = IDTable{Wide: raw.IDs.Int64s()}
	w, err := FromRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestIDTableForm(t *testing.T) {
	const n = 3000
	d := data.Uniform(n, 3, 5)
	span := func(lo int64, step int64) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = lo + step*int64(i)
		}
		ids[n/2] = lo + step*int64(n-1) // duplicates are allowed
		return ids
	}
	top := span(0, 1)
	top[7] = math.MaxUint32 // span exactly 2^32 values: still narrow
	over := span(0, 1)
	over[7] = math.MaxUint32 + 1
	cases := []struct {
		name   string
		ids    []int64
		narrow bool
	}{
		{"nil", nil, true},
		{"offset", span(1<<33, 3), true},
		{"negative", span(-5000, 7), true},
		{"span 2^32", top, true},
		{"span 2^32+1", over, false},
		{"i<<40", span(0, 1<<40), false},
		{"near max", span(math.MaxInt64-n, 1), true},
		{"near min", span(math.MinInt64, 1), true},
		{"min and max", append(span(math.MinInt64, 1)[:n-1], math.MaxInt64), false},
	}
	for _, tc := range cases {
		orig := slices.Clone(tc.ids)
		tr := Build(d.Points, tc.ids, Options{Threads: 2})
		if !slices.Equal(orig, tc.ids) {
			t.Fatalf("%s: Build modified the caller's ids", tc.name)
		}
		got := tr.IDs()
		if got.Narrow() != tc.narrow {
			t.Fatalf("%s: narrow = %v, want %v", tc.name, got.Narrow(), tc.narrow)
		}
		// Packed position i holds input point j; its id must be ids[j].
		want := tc.ids
		if want == nil {
			want = make([]int64, n)
			for i := range want {
				want[i] = int64(i)
			}
		}
		pos := make(map[[3]float32][]int64)
		for j := 0; j < n; j++ {
			k := [3]float32(d.Points.At(j))
			pos[k] = append(pos[k], want[j])
		}
		packed := tr.PackedPoints()
		for i := 0; i < n; i++ {
			ok := false
			for _, id := range pos[[3]float32(packed.At(i))] {
				ok = ok || id == got.At(i)
			}
			if !ok {
				t.Fatalf("%s: packed id %d at %d belongs to no input point there", tc.name, got.At(i), i)
			}
		}
		back, err := FromRaw(tr.Raw())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 0; i < n; i++ {
			if back.IDs().At(i) != got.At(i) {
				t.Fatalf("%s: id %d changed through Raw/FromRaw", tc.name, i)
			}
		}
	}
}

// TestNarrowWideAnswerIdentically: the same tree with its ids in either
// form answers every query with the same neighbors, and fingerprints the
// same. 2-, 3- and 6-D cover every leaf kernel.
func TestNarrowWideAnswerIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range []int{2, 3, 6} {
		pts := randomPoints(rng, 5000, dims, true)
		ids := make([]int64, pts.Len())
		for i := range ids {
			ids[i] = 1<<35 + int64(rng.Intn(1<<30))
		}
		narrow := Build(pts, ids, Options{})
		if !narrow.IDs().Narrow() {
			t.Fatal("ids spanning 2^30 built a wide table")
		}
		wide := widen(t, narrow)
		if a, b := narrow.Raw().Fingerprint(), wide.Raw().Fingerprint(); a != b {
			t.Fatalf("dims=%d: fingerprint narrow %x, wide %x", dims, a, b)
		}
		sn, sw := narrow.NewSearcher(), wide.NewSearcher()
		queries := randomPoints(rng, 100, dims, true)
		for qi := 0; qi < queries.Len(); qi++ {
			q := queries.At(qi)
			for _, k := range []int{1, 8, 40} {
				a, _ := sn.Search(q, k, Inf2, nil)
				b, _ := sw.Search(q, k, Inf2, nil)
				neighborsEqual(t, "knn", a, b)
			}
			r2 := radiusFor(sn, q)
			a, _ := sn.RadiusSearch(q, r2, nil)
			b, _ := sw.RadiusSearch(q, r2, nil)
			neighborsEqual(t, "radius", a, b)
		}
	}
}

// radiusFor is a squared radius that holds about 20 neighbors of q.
func radiusFor(s *Searcher, q []float32) float32 {
	res, _ := s.Search(q, 20, Inf2, nil)
	return res[len(res)-1].Dist2
}

func neighborsEqual(t *testing.T, what string, a, b []Neighbor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d neighbors", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: neighbor %d is %+v vs %+v", what, i, a[i], b[i])
		}
	}
}

// TestIDReadersAllocateNothing: Search and LeafPoints allocate nothing in
// either id form.
func TestIDReadersAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range []int{3, 10} {
		pts := randomPoints(rng, 20_000, dims, false)
		narrow := Build(pts, nil, Options{})
		for _, tr := range []*Tree{narrow, widen(t, narrow)} {
			s := tr.NewSearcher()
			arena := make([]Neighbor, 0, 5)
			q := pts.At(17)
			s.Search(q, 5, Inf2, arena[:0])
			if a := testing.AllocsPerRun(100, func() { s.Search(q, 5, Inf2, arena[:0]) }); a != 0 {
				t.Fatalf("dims=%d narrow=%v: Search made %v allocations", dims, tr.IDs().Narrow(), a)
			}
			leaf := tr.root
			for tr.nodes[leaf].dim != leafDim {
				leaf = tr.nodes[leaf].left
			}
			var sum int64
			buf := make([]float32, 0, tr.MaxBucket()*dims)
			if a := testing.AllocsPerRun(100, func() {
				_, ids := tr.LeafPoints(leaf, buf)
				sum += ids.At(0)
			}); a != 0 {
				t.Fatalf("dims=%d narrow=%v: LeafPoints made %v allocations", dims, tr.IDs().Narrow(), a)
			}
		}
	}
}
