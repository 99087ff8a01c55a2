// Package bench is the experiment harness: one entry point per table and
// figure of the paper's evaluation (§V), each regenerating the same rows or
// series the paper reports on the scaled-down simulated cluster.
//
// Cluster-scale experiments (Table I, Figures 4, 5, 8c) run the real
// distributed algorithm on in-process ranks and report simulated seconds
// under the pinned cost model (see internal/simtime and DESIGN.md §1).
// Single-node experiments (Figures 6, 7, ablations) run real code on the
// host and report wall-clock plus model-derived thread scaling where the
// host lacks the paper's core count.
package bench

import (
	"fmt"
	"io"
	"sync"

	"panda/internal/cluster"
	"panda/internal/core"
	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/simtime"
)

// Config controls the harness.
type Config struct {
	// Out receives the report text.
	Out io.Writer
	// Scale multiplies every dataset size (1.0 = each experiment's default
	// size; use e.g. 0.1 for a quick pass).
	Scale float64
	// Rates is the cost model (zero value = simtime.DefaultRates()).
	Rates simtime.Rates
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	var zero simtime.Rates
	if c.Rates == zero {
		c.Rates = simtime.DefaultRates()
	}
	return c
}

func (c Config) n(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 256 {
		n = 256
	}
	return n
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// distResult is the aggregate outcome of one distributed run.
type distResult struct {
	Report       simtime.Report
	Construction float64 // simulated seconds, sum of build phases
	Querying     float64 // simulated seconds, sum of query phases
	Trace        core.QueryTrace
	LocalSizes   []int
}

var buildPhaseNames = map[string]bool{
	core.PhaseGlobalTree:       true,
	core.PhaseRedistribute:     true,
	kdtree.PhaseDataParallel:   true,
	kdtree.PhaseThreadParallel: true,
	kdtree.PhasePack:           true,
}

var queryPhaseNames = map[string]bool{
	core.PhaseFindOwner:      true,
	core.PhaseLocalKNN:       true,
	core.PhaseIdentifyRemote: true,
	core.PhaseRemoteKNN:      true,
}

// runDistributed builds the distributed tree over ranks×threads and runs a
// query wave over queryFrac of the points (each rank queries a slice of its
// original shard), returning simulated timings.
func runDistributed(cfg Config, d data.Dataset, ranks, threads, k int, queryFrac float64) (distResult, error) {
	var (
		mu     sync.Mutex
		out    distResult
		traces []*core.QueryTrace
	)
	out.LocalSizes = make([]int, ranks)
	recs, err := cluster.Run(ranks, threads, func(c *cluster.Comm) error {
		pts, ids := shardPoints(d.Points, ranks, c.Rank())
		dt, err := core.BuildDistributed(c, pts, ids, kdtree.Options{})
		if err != nil {
			return err
		}
		nq := int(queryFrac * float64(pts.Len()))
		if nq < 1 {
			nq = 1
		}
		if nq > pts.Len() {
			nq = pts.Len()
		}
		// One full-wave batch: at paper scale each round carries tens of
		// thousands of queries per rank, so per-message latency is fully
		// amortized; mirroring that regime needs the whole (scaled-down)
		// wave in one pipelined round.
		_, tr, err := dt.QueryBatch(pts.Slice(0, nq), ids[:nq], core.QueryOptions{K: k, BatchSize: 1 << 30})
		if err != nil {
			return err
		}
		mu.Lock()
		out.LocalSizes[c.Rank()] = dt.Local.Len()
		traces = append(traces, tr)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return out, err
	}
	out.Report = simtime.Aggregate(cfg.Rates, recs)
	out.Construction = out.Report.Total(func(n string) bool { return buildPhaseNames[n] })
	out.Querying = out.Report.Total(func(n string) bool { return queryPhaseNames[n] })
	for _, tr := range traces {
		out.Trace.Queries += tr.Queries
		out.Trace.Owned += tr.Owned
		out.Trace.SentRemote += tr.SentRemote
		out.Trace.RemoteRequests += tr.RemoteRequests
		out.Trace.RemoteNeighborsWon += tr.RemoteNeighborsWon
	}
	return out, nil
}

// shardPoints deals dataset points round-robin to ranks (the "each node
// reads an approximately equal share" assumption).
func shardPoints(pts geom.Points, ranks, rank int) (geom.Points, []int64) {
	n := pts.Len()
	cnt := (n - rank + ranks - 1) / ranks
	out := geom.NewPoints(cnt, pts.Dims)
	ids := make([]int64, cnt)
	j := 0
	for i := rank; i < n; i += ranks {
		out.SetAt(j, pts.At(i))
		ids[j] = int64(i)
		j++
	}
	return out, ids
}

// Run dispatches one experiment by name; "all" runs everything in paper
// order.
func Run(cfg Config, experiment string) error {
	cfg = cfg.withDefaults()
	type entry struct {
		name string
		fn   func(Config) error
	}
	all := []entry{
		{"table1", Table1},
		{"fig4", Fig4},
		{"fig5a", Fig5a},
		{"fig5b", Fig5b},
		{"fig5c", Fig5c},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"table2", Table2},
		{"fig8", Fig8},
		{"science", Science},
		{"ablations", Ablations},
		{"strawman", Strawman},
		{"buffered", Buffered},
		{"build", BuildScaling},
	}
	if experiment == "all" {
		for _, e := range all {
			if err := e.fn(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
		return nil
	}
	for _, e := range all {
		if e.name == experiment {
			return e.fn(cfg)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", experiment)
}

// Experiments lists the valid experiment names in paper order.
func Experiments() []string {
	return []string{"table1", "fig4", "fig5a", "fig5b", "fig5c", "fig6",
		"fig7", "table2", "fig8", "science", "ablations", "strawman", "buffered",
		"build"}
}
