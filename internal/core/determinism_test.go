package core

import (
	"sync"
	"testing"

	"panda/internal/cluster"
	"panda/internal/data"
	"panda/internal/kdtree"
)

// captureRun builds and queries, returning the global tree nodes and all
// results keyed by qid.
func captureRun(t *testing.T, seed uint64, p int) ([]GlobalNode, map[int64][]kdtree.Neighbor) {
	t.Helper()
	d := data.Cosmo(1200, seed)
	var nodes []GlobalNode
	results := make(map[int64][]kdtree.Neighbor)
	var mu sync.Mutex
	_, err := cluster.Run(p, 2, func(c *cluster.Comm) error {
		pts, ids := shard(d.Points, p, c.Rank())
		dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		res, _, err := dt.QueryBatch(pts, ids, QueryOptions{K: 4})
		if err != nil {
			return err
		}
		mu.Lock()
		if c.Rank() == 0 {
			nodes = append(nodes, dt.Global.Nodes...)
		}
		for _, r := range res {
			results[r.QID] = r.Neighbors
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes, results
}

// TestDistributedRunsAreBitDeterministic: the whole distributed pipeline —
// sampling, histogram reduction, split choice, redistribution, local
// builds, query routing — must produce identical trees and results across
// repeated runs (goroutine scheduling must not leak into outputs).
func TestDistributedRunsAreBitDeterministic(t *testing.T) {
	nodesA, resA := captureRun(t, 99, 4)
	nodesB, resB := captureRun(t, 99, 4)
	if len(nodesA) != len(nodesB) {
		t.Fatal("global tree size differs between runs")
	}
	for i := range nodesA {
		if nodesA[i] != nodesB[i] {
			t.Fatalf("global node %d differs: %+v vs %+v", i, nodesA[i], nodesB[i])
		}
	}
	if len(resA) != len(resB) {
		t.Fatal("result count differs")
	}
	for qid, a := range resA {
		b := resB[qid]
		if len(a) != len(b) {
			t.Fatalf("qid %d: neighbor count differs", qid)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("qid %d neighbor %d: %+v vs %+v (nondeterminism)", qid, i, a[i], b[i])
			}
		}
	}
}
