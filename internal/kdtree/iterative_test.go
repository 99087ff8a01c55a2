package kdtree

import (
	"math/rand"
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
		off:  make([]float32, t.Points.Dims),
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
		dims := r.t.Points.Dims
		dist := r.dist[:hi-lo]
		geom.Dist2Batch(r.q, r.t.Points.Coords[lo*dims:hi*dims], dist)
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

// TestNewSearcherUsesCachedMaxBucket: searcher scratch must cover oversized
// leaves (indistinguishable points force buckets larger than BucketSize)
// without a Stats() walk at construction.
func TestNewSearcherUsesCachedMaxBucket(t *testing.T) {
	// 100 identical points cannot be split under the mid-range policy
	// (constant range on every dim): one oversized leaf of 100.
	pts := geom.NewPoints(100, 3)
	tree := Build(pts, nil, Options{BucketSize: 8, SplitValue: SplitMidRange})
	if tree.MaxBucket() != 100 {
		t.Fatalf("MaxBucket = %d, want 100", tree.MaxBucket())
	}
	if st := tree.Stats(); st.MaxBucket != tree.MaxBucket() {
		t.Fatalf("Stats().MaxBucket = %d, cached = %d", st.MaxBucket, tree.MaxBucket())
	}
	s := tree.NewSearcher()
	if len(s.scratch) < 100 {
		t.Fatalf("scratch len %d smaller than max bucket", len(s.scratch))
	}
	got, _ := s.Search([]float32{0, 0, 0}, 3, Inf2, nil)
	if len(got) != 3 {
		t.Fatalf("got %d neighbors, want 3", len(got))
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
