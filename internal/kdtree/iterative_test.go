package kdtree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"panda/internal/geom"
	"panda/internal/knnheap"
)

// recursiveRef reproduces the seed's recursive query kernel verbatim (walk +
// scanLeaf with the unbounded distance kernel) so the iterative traversal
// can be checked for bit-identical neighbor sets, not just set equality.
type recursiveRef struct {
	t     *Tree
	h     *knnheap.Heap
	off   []float32
	dist  []float32
	q     []float32
	r2cap float32
}

func newRecursiveRef(t *Tree) *recursiveRef {
	mb := t.maxBucket
	if mb < t.opts.BucketSize {
		mb = t.opts.BucketSize
	}
	return &recursiveRef{
		t:    t,
		h:    knnheap.New(1),
		off:  make([]float32, t.dims),
		dist: make([]float32, mb),
	}
}

func (r *recursiveRef) search(q []float32, k int, r2 float32) []Neighbor {
	if k <= 0 || r.t.Len() == 0 {
		return nil
	}
	r.h.Reset(k)
	r.q = q
	r.r2cap = r2
	clear(r.off)
	r.walk(r.t.root, 0)
	var out []Neighbor
	for _, it := range r.h.Sorted() {
		if it.Dist2 < r2 || r2 == Inf2 {
			out = append(out, Neighbor{ID: it.ID, Dist2: it.Dist2})
		}
	}
	return out
}

func (r *recursiveRef) bound() float32 {
	b := r.h.MaxDist2()
	if r.r2cap < b {
		b = r.r2cap
	}
	return b
}

func (r *recursiveRef) walk(ni int32, d2 float32) {
	n := &r.t.nodes[ni]
	if n.dim == leafDim {
		lo, hi := int(n.start), int(n.end)
		if lo == hi {
			return
		}
		pts, _ := r.t.LeafPoints(ni, nil)
		dist := r.dist[:hi-lo]
		geom.Dist2Batch(r.q, pts.Coords, dist)
		b := r.bound()
		for i, d := range dist {
			if d < b {
				if r.h.Push(d, r.t.ids.At(lo+i)) {
					b = r.bound()
				}
			}
		}
		return
	}
	dim := int(n.dim)
	off := r.q[dim] - n.median
	var closer, far int32
	if off < 0 {
		closer, far = n.left, n.right
	} else {
		closer, far = n.right, n.left
	}
	r.walk(closer, d2)
	old := r.off[dim]
	farD2 := d2 - old*old + off*off
	if farD2 < r.bound() {
		r.off[dim] = off
		r.walk(far, farD2)
		r.off[dim] = old
	}
}

func randomPoints(rng *rand.Rand, n, dims int, clustered bool) geom.Points {
	p := geom.NewPoints(n, dims)
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			v := rng.Float32()*20 - 10
			if clustered && i%3 == 0 {
				v = float32(i%7) * 0.25 // heavy co-location, duplicate coords
			}
			p.Coords[i*dims+d] = v
		}
	}
	return p
}

// TestIterativeMatchesRecursive: the explicit-stack traversal must return
// bit-identical neighbor lists (same ids, same distances, same order) as the
// seed's recursive kernel, across dimensionalities, k values, radius bounds,
// and degenerate clustered data.
func TestIterativeMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range []int{2, 3, 5, 10} {
		for _, clustered := range []bool{false, true} {
			pts := randomPoints(rng, 2000, dims, clustered)
			tree := Build(pts, nil, Options{})
			s := tree.NewSearcher()
			ref := newRecursiveRef(tree)
			for qi := 0; qi < 100; qi++ {
				q := make([]float32, dims)
				for d := range q {
					q[d] = rng.Float32()*22 - 11
				}
				for _, k := range []int{1, 5, 17} {
					for _, r2 := range []float32{Inf2, 4, 0.25} {
						got, _ := s.Search(q, k, r2, nil)
						want := ref.search(q, k, r2)
						if len(got) != len(want) {
							t.Fatalf("dims=%d clustered=%v k=%d r2=%v: %d neighbors, want %d",
								dims, clustered, k, r2, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("dims=%d clustered=%v k=%d r2=%v neighbor %d: %+v, want %+v",
									dims, clustered, k, r2, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestIterativeMatchesBruteForce cross-checks against an exhaustive scan so
// a shared bug in both tree kernels cannot hide.
func TestIterativeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dims, n, k = 4, 500, 6
	pts := randomPoints(rng, n, dims, false)
	tree := Build(pts, nil, Options{})
	s := tree.NewSearcher()
	h := knnheap.New(k)
	for qi := 0; qi < 50; qi++ {
		q := make([]float32, dims)
		for d := range q {
			q[d] = rng.Float32()*20 - 10
		}
		h.Reset(k)
		for i := 0; i < n; i++ {
			h.Push(geom.Dist2(q, pts.At(i)), int64(i))
		}
		want := h.Sorted()
		got, _ := s.Search(q, k, Inf2, nil)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Dist2 != want[i].Dist2 {
				t.Fatalf("query %d neighbor %d: %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
}

// TestSearcherScratchIsOneMaskBlock: a tree whose 120 identical points
// form one oversized leaf (they cannot be split) gets a Searcher with
// exactly one geom.MaskBlock of leaf scratch, and its KNN, radius and
// CountWithin answers over that leaf, scored 64 points at a time, match
// brute force.
func TestSearcherScratchIsOneMaskBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 300, 3, false)
	dup := []float32{0.25, 0.5, 0.75}
	for i := 0; i < 120; i++ {
		pts.SetAt(i*2, dup)
	}
	tree := Build(pts, nil, Options{BucketSize: 8, SplitValue: SplitMidRange})
	if tree.MaxBucket() <= geom.MaskBlock {
		t.Fatalf("MaxBucket = %d, want a leaf over %d points", tree.MaxBucket(), geom.MaskBlock)
	}
	if st := tree.Stats(); st.MaxBucket != tree.MaxBucket() {
		t.Fatalf("Stats().MaxBucket = %d, cached = %d", st.MaxBucket, tree.MaxBucket())
	}
	s := tree.NewSearcher()
	if len(s.scratch) != geom.MaskBlock {
		t.Fatalf("scratch of %d floats, want %d", len(s.scratch), geom.MaskBlock)
	}
	queries := [][]float32{dup, {0.26, 0.5, 0.74}, {0.9, 0.1, 0.3}}
	for _, q := range queries {
		for _, k := range []int{1, 5, 64, 100, 150} {
			got, _ := s.Search(q, k, Inf2, nil)
			if want := bruteKNN(pts, q, k); !sameNeighborDistances(got, want) {
				t.Fatalf("q=%v k=%d: KNN distances differ from brute force", q, k)
			}
		}
		for _, r2 := range []float32{1e-6, 0.01, 0.2} {
			got, _ := s.RadiusSearch(q, r2, nil)
			want := bruteRadius(pts, q, r2)
			sort.Slice(want, func(a, b int) bool {
				if want[a].Dist2 != want[b].Dist2 {
					return want[a].Dist2 < want[b].Dist2
				}
				return want[a].ID < want[b].ID
			})
			if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("q=%v r2=%v: radius answer differs from brute force", q, r2)
			}
			if c, _ := s.CountWithin(q, r2); c != len(want) {
				t.Fatalf("q=%v r2=%v: CountWithin %d, brute force %d", q, r2, c, len(want))
			}
		}
	}
}

// TestSearchZeroAllocSteadyState: a warmed-up searcher appending into a
// caller-owned arena must perform zero allocations per query — the
// acceptance bar for the batched engine's steady state.
func TestSearchZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range []int{3, 10} {
		pts := randomPoints(rng, 20_000, dims, false)
		tree := Build(pts, nil, Options{})
		s := tree.NewSearcher()
		const k = 5
		arena := make([]Neighbor, 0, k)
		queries := randomPoints(rng, 64, dims, false)
		// Warm up: first queries may grow the traversal stack.
		for i := 0; i < queries.Len(); i++ {
			s.Search(queries.At(i), k, Inf2, arena[:0])
		}
		qi := 0
		allocs := testing.AllocsPerRun(200, func() {
			res, _ := s.Search(queries.At(qi%queries.Len()), k, Inf2, arena[:0])
			if len(res) != k {
				t.Fatalf("got %d neighbors, want %d", len(res), k)
			}
			qi++
		})
		if allocs != 0 {
			t.Fatalf("dims=%d: %v allocations per query in steady state, want 0", dims, allocs)
		}
	}
}
