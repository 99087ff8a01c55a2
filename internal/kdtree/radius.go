package kdtree

import "sort"

// RadiusSearch returns every indexed point with squared distance < r2 from
// q, sorted by ascending (distance, id). This is the fixed-radius
// neighborhood primitive of BD-CATS-style clustering ([11] in the paper) —
// the easier problem §I contrasts with KNN, where the known radius allows
// up-front pruning: it is Search's walk with the bound fixed at r2.
// Results are appended to out (which may be nil).
func (s *Searcher) RadiusSearch(q []float32, r2 float32, out []Neighbor) ([]Neighbor, QueryStats) {
	if s.t.Len() == 0 || r2 <= 0 {
		return out, QueryStats{}
	}
	start := len(out)
	s.out = out
	s.walk(q, r2, r2, collectStep)
	out, s.out = s.out, nil
	sorted := out[start:]
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Dist2 != sorted[b].Dist2 {
			return sorted[a].Dist2 < sorted[b].Dist2
		}
		return sorted[a].ID < sorted[b].ID
	})
	return out, s.stats
}

// CountWithin returns how many indexed points lie strictly within squared
// radius r2 of q — the density primitive used by k-NN density estimation
// and DBSCAN-style core-point tests, without materializing neighbors.
func (s *Searcher) CountWithin(q []float32, r2 float32) (int, QueryStats) {
	if s.t.Len() == 0 || r2 <= 0 {
		return 0, QueryStats{}
	}
	s.walk(q, r2, r2, countStep)
	return s.count, s.stats
}
