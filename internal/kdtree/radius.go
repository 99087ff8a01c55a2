package kdtree

import (
	"math/bits"
	"sort"

	"panda/internal/geom"
	"panda/internal/simtime"
)

// RadiusSearch returns every indexed point with squared distance < r2 from
// q, sorted by ascending (distance, id). This is the fixed-radius
// neighborhood primitive of BD-CATS-style clustering ([11] in the paper) —
// the easier problem §I contrasts with KNN, where the known radius allows
// up-front pruning. Results are appended to out (which may be nil).
func (s *Searcher) RadiusSearch(q []float32, r2 float32, out []Neighbor) ([]Neighbor, QueryStats) {
	s.stats = QueryStats{}
	if s.t.Len() == 0 || r2 <= 0 {
		return out, s.stats
	}
	if len(q) != s.t.Points.Dims {
		panic("kdtree: query dimensionality mismatch")
	}
	s.q = q
	s.r2cap = r2
	start := len(out)
	out, _ = s.radiusIter(true, out)
	sorted := out[start:]
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Dist2 != sorted[b].Dist2 {
			return sorted[a].Dist2 < sorted[b].Dist2
		}
		return sorted[a].ID < sorted[b].ID
	})
	if s.Meter != nil {
		s.Meter.Add(simtime.KNodeVisit, s.stats.NodesVisited)
		s.Meter.Add(simtime.KDist, s.stats.PointsScanned*int64(s.t.Points.Dims))
	}
	return out, s.stats
}

// CountWithin returns how many indexed points lie strictly within squared
// radius r2 of q — the density primitive used by k-NN density estimation
// and DBSCAN-style core-point tests, without materializing neighbors.
func (s *Searcher) CountWithin(q []float32, r2 float32) (int, QueryStats) {
	s.stats = QueryStats{}
	if s.t.Len() == 0 || r2 <= 0 {
		return 0, s.stats
	}
	if len(q) != s.t.Points.Dims {
		panic("kdtree: query dimensionality mismatch")
	}
	s.q = q
	s.r2cap = r2
	_, n := s.radiusIter(false, nil)
	if s.Meter != nil {
		s.Meter.Add(simtime.KNodeVisit, s.stats.NodesVisited)
		s.Meter.Add(simtime.KDist, s.stats.PointsScanned*int64(s.t.Points.Dims))
	}
	return n, s.stats
}

// radiusIter traverses the tree over the Searcher's explicit stack with the
// fixed pruning radius r2cap (no shrinking bound, unlike the KNN walk), so
// push-time checks are exact and popped frames need no re-check. Pruning
// uses the same incremental sliding-gap bound as the KNN walk (see
// searchIter). With collect it appends matches to out; otherwise it only
// counts them.
func (s *Searcher) radiusIter(collect bool, out []Neighbor) ([]Neighbor, int) {
	stack := s.stack[:0]
	t := s.t
	nodes := t.nodes
	q := s.q
	r2 := s.r2cap
	total := 0
	ni := s.t.root
	d2 := float32(0)
	for {
		for {
			n := &nodes[ni]
			s.stats.NodesVisited++
			if n.dim == leafDim {
				out, total = s.radiusScanLeaf(n, collect, out, total)
				break
			}
			// Sliding-gap child bounds — duplicated verbatim from
			// searchIter (query.go); see the NOTE there before editing:
			// keep both copies in sync.
			v := q[n.dim]
			b4 := t.splitBounds[ni*4 : ni*4+4 : ni*4+4]
			lo, hi, lowMax, highMin := b4[0], b4[1], b4[2], b4[3]
			var old float32
			if v < lo {
				old = lo - v
			} else if v > hi {
				old = v - hi
			}
			var leftDd, rightDd float32
			if v < lo {
				leftDd = lo - v
			} else if v > lowMax {
				leftDd = v - lowMax
			}
			if v < highMin {
				rightDd = highMin - v
			} else if v > hi {
				rightDd = v - hi
			}
			base := d2 - old*old
			var closer, far int32
			var closerD2, farD2 float32
			if v < n.median {
				closer, far = n.left, n.right
				closerD2, farD2 = base+leftDd*leftDd, base+rightDd*rightDd
			} else {
				closer, far = n.right, n.left
				closerD2, farD2 = base+rightDd*rightDd, base+leftDd*leftDd
			}
			if farD2 < r2 {
				stack = append(stack, frame{node: far, d2: farD2})
			}
			if closerD2 >= r2 {
				break
			}
			ni = closer
			d2 = closerD2
		}
		if len(stack) == 0 {
			break
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ni = top.node
		d2 = top.d2
	}
	s.stack = stack[:0]
	return out, total
}

func (s *Searcher) radiusScanLeaf(n *node, collect bool, out []Neighbor, total int) ([]Neighbor, int) {
	lo, hi := int(n.start), int(n.end)
	if lo == hi {
		return out, total
	}
	cnt := hi - lo
	dims := s.t.Points.Dims
	if dims >= 4 {
		return s.radiusScanMask(lo, hi, collect, out, total)
	}
	block := s.t.Points.Coords[lo*dims : hi*dims]
	dist := s.scratch[:cnt]
	geom.Dist2BatchBounded(s.q, block, dist, s.r2cap)
	s.stats.PointsScanned += int64(cnt)
	for i, d := range dist {
		if d < s.r2cap {
			total++
			if collect {
				out = append(out, Neighbor{ID: s.t.ids.At(lo + i), Dist2: d})
			}
		}
	}
	return out, total
}

// radiusScanMask is the ≥4-D leaf scan of the radius walk: the fixed bound
// makes the candidate mask the exact answer set, walked in point order.
func (s *Searcher) radiusScanMask(lo, hi int, collect bool, out []Neighbor, total int) ([]Neighbor, int) {
	dims := s.t.Points.Dims
	coords := s.t.Points.Coords
	s.stats.PointsScanned += int64(hi - lo)
	for c := lo; c < hi; c += geom.MaskBlock {
		e := min(c+geom.MaskBlock, hi)
		dist := s.scratch[:e-c]
		m := leafMask(s.q, coords[c*dims:e*dims], dist, s.r2cap)
		total += bits.OnesCount64(m)
		for ; collect && m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			out = append(out, Neighbor{ID: s.t.ids.At(c + i), Dist2: dist[i]})
		}
	}
	return out, total
}
