package geom

import "panda/internal/par"

// boxChunk is the fixed row-chunk width of the parallel bounding-box scan:
// large enough that per-chunk dispatch is noise, small enough that the tail
// chunk cannot idle the other workers.
const boxChunk = 8192

// parMinRows is the point count below which BoundingBoxPar falls back to
// the sequential scan outright.
const parMinRows = 4096

// BoundingBoxPar is BoundingBox with the min/max scan chunked over pool's
// workers. Per-chunk extents are merged in chunk index order; float32
// min/max is associative and commutative, so the result is identical to the
// sequential scan for any worker count.
func BoundingBoxPar(p Points, pool *par.Pool) Box {
	n := p.Len()
	if pool.Workers() <= 1 || n < parMinRows {
		return BoundingBox(p)
	}
	nc := par.Chunks(n, boxChunk)
	mins := make([][]float32, nc)
	maxs := make([][]float32, nc)
	pool.ForChunks(n, boxChunk, func(c, lo, hi int) {
		mins[c], maxs[c] = p.MinMax(lo, hi)
	})
	mn, mx := mins[0], maxs[0]
	for c := 1; c < nc; c++ {
		for d := range mn {
			if mins[c][d] < mn[d] {
				mn[d] = mins[c][d]
			}
			if maxs[c][d] > mx[d] {
				mx[d] = maxs[c][d]
			}
		}
	}
	return Box{Min: mn, Max: mx}
}
