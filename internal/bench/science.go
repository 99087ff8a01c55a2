package bench

import (
	"sync"

	"panda/internal/cluster"
	"panda/internal/core"
	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/knnheap"
)

// Science regenerates §V-C: k-NN majority-vote classification of Daya Bay
// detector records into the 3 physicist-annotated event classes on the
// distributed tree. The paper reports 87% accuracy; the synthetic dataset's
// class overlap and annotation impurity are tuned so the same pipeline
// lands in the same regime (see internal/data).
func Science(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		ranks = 4
		k     = 5
	)
	n := cfg.n(200_000)
	nTrain := n * 4 / 5
	d := data.DayaBay(n, 2016)

	type vote struct {
		qid  int64
		pred uint8
	}
	var mu sync.Mutex
	var votes []vote
	_, err := cluster.Run(ranks, 2, func(c *cluster.Comm) error {
		train, ids := shardPoints(d.Points.Slice(0, nTrain), ranks, c.Rank())
		dt, err := core.BuildDistributed(c, train, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		queries := geom.NewPoints(0, d.Points.Dims)
		var qids []int64
		for i := nTrain + c.Rank(); i < n; i += ranks {
			queries = queries.Append(d.Points.At(i))
			qids = append(qids, int64(i))
		}
		res, _, err := dt.QueryBatch(queries, qids, core.QueryOptions{K: k})
		if err != nil {
			return err
		}
		mu.Lock()
		for _, r := range res {
			items := make([]knnheap.Item, len(r.Neighbors))
			for j, nb := range r.Neighbors {
				items[j] = knnheap.Item{ID: nb.ID, Dist2: nb.Dist2}
			}
			votes = append(votes, vote{qid: r.QID, pred: majorityVote(items, d.Labels)})
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}

	correct := 0
	perClass := [3][2]int{}
	for _, v := range votes {
		truth := d.Labels[v.qid]
		perClass[truth][1]++
		if v.pred == truth {
			correct++
			perClass[truth][0]++
		}
	}
	cfg.printf("== Science result (§V-C): Daya Bay 3-class k-NN classification ==\n")
	cfg.printf("records %d (train %d / test %d), k=%d, %d ranks\n", n, nTrain, n-nTrain, k, ranks)
	cfg.printf("accuracy: %.1f%%   (paper: 87%%)\n", 100*float64(correct)/float64(len(votes)))
	for c, pc := range perClass {
		cfg.printf("  class %d: %6d/%6d (%.1f%%)\n", c, pc[0], pc[1], 100*float64(pc[0])/float64(pc[1]))
	}
	cfg.printf("\n")
	return nil
}

// majorityVote returns the class with the most votes among the (distance-
// sorted) neighbors; ties go to the class reached first (closest).
func majorityVote(nbrs []knnheap.Item, labels []uint8) uint8 {
	if len(nbrs) == 0 {
		return 0
	}
	counts := map[uint8]int{}
	best := labels[nbrs[0].ID]
	bestCount := 0
	for _, nb := range nbrs {
		c := labels[nb.ID]
		counts[c]++
		if counts[c] > bestCount {
			best, bestCount = c, counts[c]
		}
	}
	return best
}
