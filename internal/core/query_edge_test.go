package core

import (
	"fmt"
	"sync"
	"testing"

	"panda/internal/cluster"
	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/simtime"
)

func TestQueryBatchEmptyQuerySet(t *testing.T) {
	// Ranks with zero queries must still participate in the pipeline so
	// other ranks' collectives complete.
	d := data.Uniform(800, 3, 61)
	var got int
	var mu sync.Mutex
	_, err := cluster.Run(4, 1, func(c *cluster.Comm) error {
		pts, ids := shard(d.Points, 4, c.Rank())
		dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		var queries geom.Points
		var qids []int64
		if c.Rank() == 0 {
			queries = pts.Slice(0, 50)
			qids = ids[:50]
		} else {
			queries = geom.NewPoints(0, 3)
		}
		res, _, err := dt.QueryBatch(queries, qids, QueryOptions{K: 3})
		if err != nil {
			return err
		}
		mu.Lock()
		got += len(res)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("results = %d, want 50", got)
	}
}

func TestQueryBatchQueriesOutsideDataDomain(t *testing.T) {
	// Queries far outside the data's bounding box still resolve (the root
	// domains are half-infinite).
	d := data.Uniform(1000, 3, 63)
	_, err := cluster.Run(4, 1, func(c *cluster.Comm) error {
		pts, ids := shard(d.Points, 4, c.Rank())
		dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		queries := geom.NewPoints(2, 3)
		queries.SetAt(0, []float32{-100, -100, -100})
		queries.SetAt(1, []float32{+100, +100, +100})
		res, _, err := dt.QueryBatch(queries, []int64{0, 1}, QueryOptions{K: 5})
		if err != nil {
			return err
		}
		for _, r := range res {
			if len(r.Neighbors) != 5 {
				return fmt.Errorf("far query returned %d neighbors", len(r.Neighbors))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueryBatchDuplicateQIDsWithinRank(t *testing.T) {
	// The per-rank qid->index map requires unique qids per rank; with
	// duplicates the last result wins but the call must not fail or hang.
	d := data.Uniform(400, 3, 65)
	_, err := cluster.Run(2, 1, func(c *cluster.Comm) error {
		pts, _ := shard(d.Points, 2, c.Rank())
		dt, err := BuildDistributed(c, pts, nil, kdtree.Options{})
		if err != nil {
			return err
		}
		queries := pts.Slice(0, 2)
		_, _, err = dt.QueryBatch(queries, []int64{7, 7}, QueryOptions{K: 1})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildDistributedEmptyRankShard(t *testing.T) {
	// One rank starts with zero points (uneven ingestion); the build must
	// still converge and conserve points.
	d := data.Uniform(900, 3, 67)
	trees := make([]*DistTree, 4)
	_, err := cluster.Run(4, 1, func(c *cluster.Comm) error {
		var pts geom.Points
		var ids []int64
		if c.Rank() == 3 {
			pts = geom.NewPoints(0, 3)
		} else {
			pts, ids = shard(d.Points, 3, c.Rank())
		}
		dt, err := BuildDistributed(c, pts, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		trees[c.Rank()] = dt
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, dt := range trees {
		total += dt.Local.Len()
	}
	if total != 900 {
		t.Fatalf("conserved %d/900 points", total)
	}
}

func TestBuildDistributedDefaultIDsUnique(t *testing.T) {
	d := data.Uniform(1200, 3, 69)
	seen := make(map[int64]bool)
	var mu sync.Mutex
	_, err := cluster.Run(4, 1, func(c *cluster.Comm) error {
		pts, _ := shard(d.Points, 4, c.Rank())
		dt, err := BuildDistributed(c, pts, nil, kdtree.Options{}) // nil ids
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, id := range dt.Local.IDs().Int64s() {
			if seen[id] {
				return fmt.Errorf("duplicate default id %d", id)
			}
			seen[id] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1200 {
		t.Fatalf("ids cover %d/1200", len(seen))
	}
}

func TestRedistributionSourcesMatchPartners(t *testing.T) {
	// For every group shape, the partner function and the source list must
	// be mutually consistent: q sends to partner(q) ⇔ partner(q) lists q.
	for _, g := range []struct{ lo, hi int }{{0, 2}, {0, 3}, {0, 4}, {2, 7}, {0, 8}, {3, 9}} {
		mid := g.lo + (g.hi-g.lo)/2
		for q := g.lo; q < g.hi; q++ {
			var partner int
			if q < mid {
				partner = mid + (q-g.lo)%(g.hi-mid)
			} else {
				partner = g.lo + (q-mid)%(mid-g.lo)
			}
			found := false
			for _, src := range redistributionSources(partner, g.lo, mid, g.hi) {
				if src == q {
					found = true
				}
			}
			if !found {
				t.Fatalf("group [%d,%d): rank %d sends to %d but is not in its source list",
					g.lo, g.hi, q, partner)
			}
		}
	}
}

func TestGlobalTreeOwnerMeter(t *testing.T) {
	splits := map[[2]int]split{
		{0, 4}: {dim: 0, median: 0.5},
		{0, 2}: {dim: 1, median: 0.5},
		{2, 4}: {dim: 1, median: 0.5},
	}
	g, _ := buildGlobalTree(4, 2, splits)
	// Meter must accumulate one visit per level plus the leaf.
	var m simtime.Meter
	g.Owner([]float32{0.1, 0.1}, &m)
	if got := m.Units(simtime.KNodeVisit); got != 3 {
		t.Fatalf("owner visits = %d, want 3 (2 internal + leaf)", got)
	}
}
