// Package baselines implements the systems PANDA is compared against in the
// paper's evaluation:
//
//   - a FLANN-like kd-tree (§V-B2: variance-selected dimension, split value
//     = mean of the first 100 points along it);
//   - an ANN-like kd-tree (max-spread dimension, split value = midpoint of
//     the range — cheap but unbalanced on skewed data, depth 109 vs 32 on
//     Daya Bay in the paper);
//   - exact brute-force KNN (the oracle, and the approach most prior
//     distributed KNN work used instead of trees);
//   - the "local trees everywhere" distributed strawman from §I: no global
//     redistribution, every query fanned out to all P ranks, P·k candidates
//     shipped and all but k thrown away.
//
// The two library look-alikes reuse PANDA's query kernel so Figure 7
// comparisons isolate construction policy (tree shape), exactly the quantity
// the paper attributes the win to (fewer node traversals).
package baselines

import (
	"fmt"
	"sort"

	"panda/internal/cluster"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/knnheap"
	"panda/internal/sample"
	"panda/internal/wire"
)

// FLANNLeafSize mirrors FLANN's default leaf_max_size=10. The small leaves
// (vs PANDA's SIMD-packed 32) are a large part of why PANDA traverses fewer
// nodes per query (the paper's height comparison: FLANN 34 vs PANDA 21 on
// cosmo_thin).
const FLANNLeafSize = 10

// ANNLeafSize mirrors ANN's default bucket size of 1.
const ANNLeafSize = 1

// BuildFLANN constructs a kd-tree with FLANN's policies. Threads applies to
// construction (FLANN itself builds serially; pass 1 for faithful timing).
func BuildFLANN(pts geom.Points, ids []int64, threads int) *kdtree.Tree {
	return kdtree.Build(pts, ids, kdtree.Options{
		SplitPolicy:  sample.MaxVariance,
		SplitValue:   kdtree.SplitMeanSample,
		DimSampleCap: 100, // FLANN examines a small fixed sample
		BucketSize:   FLANNLeafSize,
		Threads:      threads,
	})
}

// BuildANN constructs a kd-tree with ANN's policies (always single-threaded
// construction, like the original; the paper notes ANN could not be
// parallelized).
func BuildANN(pts geom.Points, ids []int64) *kdtree.Tree {
	return kdtree.Build(pts, ids, kdtree.Options{
		SplitPolicy: sample.MaxRange,
		SplitValue:  kdtree.SplitMidRange,
		BucketSize:  ANNLeafSize,
		Threads:     1,
	})
}

// BruteKNN returns the exact k nearest neighbors of q by exhaustive scan —
// O(n) per query, the complexity the paper's kd-tree work displaces.
func BruteKNN(pts geom.Points, ids []int64, q []float32, k int) []kdtree.Neighbor {
	h := knnheap.New(k)
	dims := pts.Dims
	scratch := make([]float32, 4096)
	n := pts.Len()
	for lo := 0; lo < n; lo += len(scratch) {
		hi := lo + len(scratch)
		if hi > n {
			hi = n
		}
		block := pts.Coords[lo*dims : hi*dims]
		d := scratch[:hi-lo]
		geom.Dist2Batch(q, block, d)
		for i, dist := range d {
			id := int64(lo + i)
			if ids != nil {
				id = ids[lo+i]
			}
			h.Push(dist, id)
		}
	}
	items := h.Sorted()
	out := make([]kdtree.Neighbor, len(items))
	for i, it := range items {
		out[i] = kdtree.Neighbor{ID: it.ID, Dist2: it.Dist2}
	}
	return out
}

// LocalTreesResult is what the strawman returns per query.
type LocalTreesResult struct {
	QID       int64
	Neighbors []kdtree.Neighbor
}

// LocalTreesStats meters the strawman's inefficiency for the §I comparison.
type LocalTreesStats struct {
	CandidatesShipped int64 // total (P−1)·k candidates moved per query wave
	CandidatesKept    int64 // k per query — the rest was wasted traffic
}

// RunLocalTreesKNN executes the no-redistribution strawman on an existing
// communicator: each rank builds a kd-tree over its own shard (trivially
// parallel construction), then EVERY query is broadcast to ALL ranks, each
// answers from its local tree, and the origin merges P candidate lists of k
// each. Exact, but ships P·k candidates per query and runs P tree
// traversals per query — the overheads §I calls out.
func RunLocalTreesKNN(c *cluster.Comm, pts geom.Points, ids []int64, queries geom.Points, qids []int64, k int) ([]LocalTreesResult, *LocalTreesStats, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("baselines: k must be ≥ 1")
	}
	p := c.Size()
	if qids == nil {
		qids = make([]int64, queries.Len())
		for i := range qids {
			qids[i] = int64(i)
		}
	}

	c.Phase("strawman: local build")
	tree := kdtree.Build(pts, ids, kdtree.Options{Threads: c.Threads(), Recorder: c.Recorder()})

	// Broadcast every rank's queries to everyone.
	c.Phase("strawman: query fanout")
	buf := wire.AppendUint32(nil, uint32(queries.Len()))
	for i := 0; i < queries.Len(); i++ {
		buf = wire.AppendInt64(buf, qids[i])
		for _, v := range queries.At(i) {
			buf = wire.AppendFloat32(buf, v)
		}
	}
	all := c.AllGather(buf)

	// Answer every query in the cluster from the local tree.
	c.Phase("strawman: local KNN")
	s := tree.NewSearcher()
	s.Meter = c.Meter(0)
	type answer struct {
		qid   int64
		items []knnheap.Item
	}
	answers := make([][]answer, p) // per origin rank
	dims := queries.Dims
	if dims == 0 {
		dims = pts.Dims
	}
	for src, part := range all {
		r := wire.NewDecoder(part)
		cnt := int(r.Uint32())
		for j := 0; j < cnt; j++ {
			qid := r.Int64()
			q := make([]float32, dims)
			for d := range q {
				q[d] = r.Float32()
			}
			nbrs, _ := s.Search(q, k, kdtree.Inf2, nil)
			items := make([]knnheap.Item, len(nbrs))
			for x, nb := range nbrs {
				items[x] = knnheap.Item{Dist2: nb.Dist2, ID: nb.ID}
			}
			answers[src] = append(answers[src], answer{qid: qid, items: items})
		}
		if err := r.Err(); err != nil {
			panic(fmt.Sprintf("baselines: decoding queries: %v", err))
		}
	}

	// Ship candidates back to origins (the P·k traffic).
	c.Phase("strawman: top-k merge")
	stats := &LocalTreesStats{}
	bufs := make([][]byte, p)
	for origin := 0; origin < p; origin++ {
		b := wire.AppendUint32(nil, uint32(len(answers[origin])))
		for _, a := range answers[origin] {
			b = wire.AppendInt64(b, a.qid)
			b = wire.AppendUint32(b, uint32(len(a.items)))
			for _, it := range a.items {
				b = wire.AppendInt64(b, it.ID)
				b = wire.AppendFloat32(b, it.Dist2)
			}
			if origin != c.Rank() {
				stats.CandidatesShipped += int64(len(a.items))
			}
		}
		bufs[origin] = b
	}
	returned := c.AllToAll(bufs)

	// Merge the P candidate lists per query.
	merged := make(map[int64][][]knnheap.Item, queries.Len())
	for _, part := range returned {
		r := wire.NewDecoder(part)
		cnt := int(r.Uint32())
		for j := 0; j < cnt; j++ {
			qid := r.Int64()
			nn := int(r.Uint32())
			items := make([]knnheap.Item, nn)
			for x := range items {
				items[x] = knnheap.Item{ID: r.Int64(), Dist2: r.Float32()}
			}
			merged[qid] = append(merged[qid], items)
		}
		if err := r.Err(); err != nil {
			panic(fmt.Sprintf("baselines: decoding candidates: %v", err))
		}
	}
	out := make([]LocalTreesResult, 0, queries.Len())
	for i := 0; i < queries.Len(); i++ {
		lists := merged[qids[i]]
		top := knnheap.MergeTopK(k, lists...)
		stats.CandidatesKept += int64(len(top))
		nbrs := make([]kdtree.Neighbor, len(top))
		for x, it := range top {
			nbrs[x] = kdtree.Neighbor{ID: it.ID, Dist2: it.Dist2}
		}
		out = append(out, LocalTreesResult{QID: qids[i], Neighbors: nbrs})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].QID < out[b].QID })
	return out, stats, nil
}
