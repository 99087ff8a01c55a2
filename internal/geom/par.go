package geom

import "panda/internal/par"

// gatherChunk is the fixed row-chunk width of the parallel gather: large
// enough that per-chunk dispatch is noise, small enough that the tail chunk
// cannot idle the other workers.
const gatherChunk = 8192

// parMinRows is the point count below which the parallel variants fall back
// to their sequential forms outright.
const parMinRows = 4096

// GatherPar is Gather fanned out over pool's workers: each worker copies
// disjoint destination row ranges, so the result is byte-identical to the
// sequential gather for any worker count. A nil pool (or one worker, or a
// small index set) runs the sequential path.
func (p Points) GatherPar(indices []int32, pool *par.Pool) Points {
	if pool.Workers() <= 1 || len(indices) < parMinRows {
		return p.Gather(indices)
	}
	out := NewPoints(len(indices), p.Dims)
	pool.ForChunks(len(indices), gatherChunk, func(_, lo, hi int) {
		p.gatherRows(out, indices, lo, hi)
	})
	return out
}

// BoundingBoxPar is BoundingBox with the min/max scan chunked over pool's
// workers. Per-chunk extents are merged in chunk index order; float32
// min/max is associative and commutative, so the result is identical to the
// sequential scan for any worker count.
func BoundingBoxPar(p Points, pool *par.Pool) Box {
	n := p.Len()
	if pool.Workers() <= 1 || n < parMinRows {
		return BoundingBox(p)
	}
	nc := par.Chunks(n, gatherChunk)
	mins := make([][]float32, nc)
	maxs := make([][]float32, nc)
	pool.ForChunks(n, gatherChunk, func(c, lo, hi int) {
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
