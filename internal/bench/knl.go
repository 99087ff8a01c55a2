package bench

import (
	"fmt"
	"time"

	"panda/internal/cluster"
	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/simtime"
	"panda/internal/wire"
)

// knlThreads is the per-node thread count for the Knights Landing
// experiments (the paper's KNL nodes have 68 cores).
const knlThreads = 68

// table2Cases are the Table II datasets at harness scale (paper sizes /10
// for the SDSS photometry pairs and /400 for the particle sets).
var table2Cases = []struct {
	name            string
	gen             string
	buildN, queryN  int
	dims            int
	paperBuildN     string
	paperQueryN     string
	distributedTree bool
}{
	{"psf_mod_mag", "sdss10", 200_000, 400_000, 10, "2M", "10M", false},
	{"all_mag", "sdss15", 200_000, 400_000, 15, "2M", "10M", false},
	{"cosmo", "cosmo", 640_000, 640_000, 3, "254M", "254M", true},
	{"plasma", "plasma", 625_000, 625_000, 3, "250M", "250M", true},
}

// Table2 regenerates Table II: the datasets used for the Intel Xeon Phi
// (KNL) experiments.
func Table2(cfg Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("== Table II: Xeon Phi (KNL) experiment datasets ==\n")
	cfg.printf("%-12s %12s %12s %5s %10s %10s  %s\n",
		"name", "construction", "querying", "dims", "paper-C", "paper-Q", "tree")
	for _, cs := range table2Cases {
		tree := "shared"
		if cs.distributedTree {
			tree = "distributed"
		}
		cfg.printf("%-12s %12d %12d %5d %10s %10s  %s\n",
			cs.name, cfg.n(cs.buildN), cfg.n(cs.queryN), cs.dims,
			cs.paperBuildN, cs.paperQueryN, tree)
	}
	cfg.printf("\n")
	return nil
}

// Fig8 regenerates Figure 8: (a) KNL vs Titan Z query throughput on 1 and 4
// nodes; (b) shared-kd-tree strong scaling to 128 nodes; (c)
// distributed-kd-tree strong scaling 8→64 nodes on cosmo/plasma.
//
// The GPU side of (a) cannot run here; the harness reports this host's
// measured queries/s and derives the Titan Z reference line from the
// paper's measured ratio (KNL = 1.7–3.1× one Titan Z), clearly labeled.
// Shapes to check: near-linear shared-tree scaling (paper: 3.97X at 4
// nodes, ~107X at 128), and ~6.6X distributed-tree speedup from 8→64 nodes.
func Fig8(cfg Config) error {
	cfg = cfg.withDefaults()
	const k = 10

	cfg.printf("== Figure 8(a): shared-tree query throughput (k=%d) ==\n", k)
	cfg.printf("%-12s %16s %16s %16s %10s\n",
		"dataset", "host-1t (q/s)", "1 node* (q/s)", "4 nodes* (q/s)", "4-node X")
	for _, cs := range table2Cases[:2] {
		build, err := data.ByName(cs.gen, cfg.n(cs.buildN), 2016)
		if err != nil {
			return err
		}
		queries, err := data.ByName(cs.gen, cfg.n(cs.queryN), 2017)
		if err != nil {
			return err
		}
		tree := kdtree.Build(build.Points, nil, kdtree.Options{})

		// Real single-thread throughput on this host.
		s := tree.NewSearcher()
		nq := queries.Points.Len()
		start := time.Now()
		for i := 0; i < nq; i++ {
			s.Search(queries.Points.At(i), k, kdtree.Inf2, nil)
		}
		wall := time.Since(start).Seconds()
		hostQPS := float64(nq) / wall

		// Modeled node throughput: 68 KNL cores under the Figure 6 node
		// model, then multi-node shared-tree scaling from a real
		// simulated-cluster run.
		s1 := sharedTreeTime(cfg, tree, queries.Points, k, 1)
		s4 := sharedTreeTime(cfg, tree, queries.Points, k, 4)
		node1QPS := float64(nq) / s1
		node4QPS := float64(nq) / s4
		cfg.printf("%-12s %16.0f %16.0f %16.0f %9.2fX\n",
			cs.name, hostQPS, node1QPS, node4QPS, s1/s4)
	}
	cfg.printf("(*modeled KNL node = %d threads; paper: 1 KNL = 1.7-3.1X one Titan Z, 4 nodes scale 3.97X)\n\n", knlThreads)

	cfg.printf("== Figure 8(b): shared kd-tree strong scaling (psf_mod_mag & all_mag) ==\n")
	cfg.printf("%8s %14s %14s\n", "nodes", "psf_mod_mag", "all_mag")
	ranksList := []int{1, 2, 4, 8, 16, 32, 64, 128}
	var speedups [2][]float64
	for i, cs := range table2Cases[:2] {
		build, err := data.ByName(cs.gen, cfg.n(cs.buildN), 2016)
		if err != nil {
			return err
		}
		queries, err := data.ByName(cs.gen, cfg.n(cs.queryN), 2017)
		if err != nil {
			return err
		}
		tree := kdtree.Build(build.Points, nil, kdtree.Options{})
		var base float64
		for _, p := range ranksList {
			t := sharedTreeTime(cfg, tree, queries.Points, k, p)
			if p == 1 {
				base = t
			}
			speedups[i] = append(speedups[i], base/t)
		}
	}
	for j, p := range ranksList {
		cfg.printf("%8d %13.1fX %13.1fX\n", p, speedups[0][j], speedups[1][j])
	}
	cfg.printf("(paper: up to 107X at 128 nodes)\n\n")

	cfg.printf("== Figure 8(c): distributed kd-tree strong scaling (querying) ==\n")
	cfg.printf("%8s %12s %12s\n", "nodes", "cosmo", "plasma")
	nodes := []int{8, 16, 32, 64}
	var dSpeed [2][]float64
	for i, cs := range table2Cases[2:] {
		d, err := data.ByName(cs.gen, cfg.n(cs.buildN), 2016)
		if err != nil {
			return err
		}
		var base float64
		for _, p := range nodes {
			res, err := runDistributed(cfg, d, p, knlThreads, k, 0.5)
			if err != nil {
				return err
			}
			if p == nodes[0] {
				base = res.Querying
			}
			dSpeed[i] = append(dSpeed[i], base/res.Querying)
		}
	}
	for j, p := range nodes {
		cfg.printf("%8d %11.1fX %11.1fX\n", p, dSpeed[0][j], dSpeed[1][j])
	}
	cfg.printf("(paper: 6.6X speedup from 8 to 64 KNL nodes)\n\n")
	return nil
}

// sharedTreeTime runs the shared-kd-tree multi-node querying mode (every
// node holds a full replica, queries are scattered from rank 0 and answers
// gathered back — the mode the paper uses for the small SDSS trees, like
// the multi-GPU implementations it compares against) on a real simulated
// cluster and returns modeled seconds.
func sharedTreeTime(cfg Config, tree *kdtree.Tree, queries geom.Points, k, ranks int) float64 {
	recs, err := cluster.Run(ranks, knlThreads, func(c *cluster.Comm) error {
		rank, p := c.Rank(), c.Size()
		c.Phase("scatter")
		var mine geom.Points
		if rank == 0 {
			// Scatter query shards.
			n := queries.Len()
			per := (n + p - 1) / p
			for dst := 1; dst < p; dst++ {
				lo := dst * per
				hi := lo + per
				if lo > n {
					lo = n
				}
				if hi > n {
					hi = n
				}
				buf := wire.AppendFloat32s(nil, queries.Slice(lo, hi).Coords)
				c.Send(dst, 1, buf)
			}
			end := per
			if end > n {
				end = n
			}
			mine = queries.Slice(0, end)
		} else {
			_, buf := c.Recv(0, 1)
			r := wire.NewDecoder(buf)
			mine = geom.FromCoords(r.Float32sInto(nil, 0), queries.Dims)
			if err := r.Err(); err != nil {
				panic(fmt.Sprintf("bench: decoding query shard: %v", err))
			}
		}

		c.Phase("query").Overlapped = true
		pm := c.Recorder().Current()
		s := tree.NewSearcher()
		results := make([]byte, 0, mine.Len()*12)
		for i := 0; i < mine.Len(); i++ {
			s.Meter = pm.Thread(i % c.Threads())
			nbrs, _ := s.Search(mine.At(i), k, kdtree.Inf2, nil)
			if len(nbrs) > 0 {
				results = wire.AppendInt64(results, nbrs[0].ID)
				results = wire.AppendFloat32(results, nbrs[0].Dist2)
			}
		}

		c.Phase("gather")
		c.Gather(0, results)
		return nil
	})
	if err != nil {
		panic(err)
	}
	rep := simtime.Aggregate(cfg.Rates, recs)
	return rep.Total(nil)
}
