package geom

import (
	"runtime"
	"testing"

	"panda/internal/par"
)

func parTestPoints(n, dims int) Points {
	p := NewPoints(n, dims)
	for i := range p.Coords {
		// Deterministic, irregular, includes negatives and repeats.
		p.Coords[i] = float32(uint32(i)*2654435761%4093)/17 - 100
	}
	return p
}

// TestBoundingBoxParMatchesSequential: chunk-merged extents must equal the
// sequential scan exactly.
func TestBoundingBoxParMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	p := parTestPoints(30_000, 7)
	want := BoundingBox(p)
	for _, workers := range []int{1, 2, 8} {
		got := BoundingBoxPar(p, par.NewPool(workers))
		for d := 0; d < p.Dims; d++ {
			if got.Min[d] != want.Min[d] || got.Max[d] != want.Max[d] {
				t.Fatalf("workers=%d dim %d: [%v,%v] != [%v,%v]",
					workers, d, got.Min[d], got.Max[d], want.Min[d], want.Max[d])
			}
		}
	}
	// Small input takes the sequential path; nil pool must be safe.
	small := parTestPoints(10, 3)
	got := BoundingBoxPar(small, nil)
	want = BoundingBox(small)
	for d := 0; d < 3; d++ {
		if got.Min[d] != want.Min[d] || got.Max[d] != want.Max[d] {
			t.Fatal("nil-pool bounding box differs")
		}
	}
}
