// Command panda-query drives a running panda-serve instance (single-node or
// -cluster) with a query workload from the outside: it connects over TCP,
// sends mixed single/batch KNN and radius-search queries, and reports
// throughput. With -check it rebuilds the same deterministic synthetic
// dataset locally and verifies every answer bit-for-bit against a local
// tree — the external ground-truth probe used by the CI cluster smoke job.
//
// Usage:
//
//	panda-serve -dataset uniform -n 50000 -seed 9 -addr 127.0.0.1:7077 &
//	panda-query -addrs 127.0.0.1:7077 -dataset uniform -n 50000 -seed 9 -check
//
// Against a cluster, -addrs takes every rank's serving address; queries are
// spread across the ranks so both owner-local and forwarded paths run.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"panda"
)

func main() {
	var (
		addrs   = flag.String("addrs", "127.0.0.1:7077", "comma-separated serving addresses (all ranks of a cluster)")
		tenant  = flag.String("tenant", "", "dataset to bind at handshake on a multi-tenant server (empty = the server's default tenant)")
		dataset = flag.String("dataset", "uniform", "synthetic dataset family the server was started with")
		n       = flag.Int("n", 100000, "server's synthetic point count")
		seed    = flag.Uint64("seed", 1, "server's synthetic generator seed")
		check   = flag.Bool("check", false, "rebuild the dataset locally and verify every answer bit-for-bit")
		queries = flag.Int("queries", 2000, "total queries to send")
		k       = flag.Int("k", 5, "neighbors per KNN query")
		qseed   = flag.Int64("qseed", 7, "query generator seed")
		wait    = flag.Duration("wait", 30*time.Second, "how long to retry connecting while the cluster starts")
		stats   = flag.Bool("stats", false, "print each server's serving counters after the workload")
		trace   = flag.Bool("trace", false, "after the workload, send one traced KNN query per rank and print its per-stage latency waterfall (cluster queries include spans from the remote ranks that worked on them)")
	)
	flag.Parse()
	if err := run(splitAddrs(*addrs), *tenant, *dataset, *n, *seed, *check, *queries, *k, *qseed, *wait, *stats, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "panda-query:", err)
		os.Exit(1)
	}
}

func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(addrs []string, tenant, dataset string, n int, seed uint64, check bool, queries, k int, qseed int64, wait time.Duration, stats, trace bool) error {
	if len(addrs) == 0 {
		return fmt.Errorf("-addrs needs at least one serving address")
	}
	coords, dims, _, err := panda.GenerateDataset(dataset, n, seed)
	if err != nil {
		return err
	}
	var ref *panda.Tree
	if check {
		if ref, err = panda.Build(coords, dims, nil, nil); err != nil {
			return err
		}
		log.Printf("rebuilt local ground-truth tree (%d points, %d dims)", n, dims)
	}

	// The cluster may still be joining its mesh and building: retry until
	// every rank accepts the handshake. The retry policy also arms each client to
	// reconnect and re-send idempotent calls if its rank drops mid-workload
	// — with server-side replication the answers after the reconnect are
	// still bit-identical, which is exactly what -check verifies.
	deadline := time.Now().Add(wait)
	clients := make([]*panda.Client, len(addrs))
	for i, addr := range addrs {
		for {
			clients[i], err = panda.Dialer{Dataset: tenant, Retry: panda.DefaultRetry}.Dial(addr)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("connecting to %s: %w", addr, err)
			}
			time.Sleep(200 * time.Millisecond)
		}
		defer clients[i].Close()
	}
	if got := clients[0].Dims(); got != dims {
		return fmt.Errorf("server tree has %d dims, dataset %q has %d — wrong dataset flags?", got, dataset, dims)
	}
	id := clients[0].DatasetID()
	log.Printf("connected to %d rank(s), bound to dataset %s[dims=%d points=%d fp=%016x]; sending %d queries (k=%d)",
		len(addrs), id.Name, id.Dims, id.Points, id.Fingerprint, queries, k)

	// Spread the workload across the clients without dropping the
	// remainder: the first queries%len clients send one extra.
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, len(clients))
	total := 0
	for ci, c := range clients {
		per := queries / len(clients)
		if ci < queries%len(clients) {
			per++
		}
		if per == 0 {
			continue
		}
		total += per
		wg.Add(1)
		go func(ci, per int, c *panda.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(qseed + int64(ci)))
			q := make([]float32, dims)
			batch := make([]float32, 16*dims)
			for sent := 0; sent < per; {
				switch {
				case sent%64 == 0 && per-sent >= 16: // batch request
					for i := range batch {
						batch[i] = rng.Float32()
					}
					got, err := c.KNNBatch(batch, k)
					if err != nil {
						errc <- err
						return
					}
					if ref != nil {
						for qi := range got {
							if !same(got[qi], ref.KNN(batch[qi*dims:(qi+1)*dims], k)) {
								errc <- fmt.Errorf("client %d: batch KNN mismatch", ci)
								return
							}
						}
					}
					sent += 16
				case sent%10 == 9: // radius request
					for d := range q {
						q[d] = rng.Float32()
					}
					r2 := rng.Float32() * 0.001
					got, err := c.RadiusSearch(q, r2)
					if err != nil {
						errc <- err
						return
					}
					if ref != nil && !same(got, ref.RadiusSearch(q, r2)) {
						errc <- fmt.Errorf("client %d: radius mismatch", ci)
						return
					}
					sent++
				default: // single KNN
					for d := range q {
						q[d] = rng.Float32()
					}
					got, err := c.KNN(q, k)
					if err != nil {
						errc <- err
						return
					}
					if ref != nil && !same(got, ref.KNN(q, k)) {
						errc <- fmt.Errorf("client %d: KNN mismatch", ci)
						return
					}
					sent++
				}
			}
		}(ci, per, c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return err
	}
	if total == 0 {
		return fmt.Errorf("no queries sent (-queries %d)", queries)
	}
	elapsed := time.Since(start)
	verified := ""
	if check {
		verified = ", all verified bit-identical"
	}
	log.Printf("%d queries in %v (%.1f µs/query%s)", total, elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/float64(total), verified)
	if stats {
		// Per-rank serving counters: in a cluster each rank reports its own
		// dispatcher's work (forwarded queries count at the rank that ran
		// them), so the per-rank spread shows the shard balance.
		for i, c := range clients {
			st, err := c.Stats()
			if err != nil {
				return fmt.Errorf("stats from %s: %w", addrs[i], err)
			}
			log.Printf("%s: %d queries in %d batches (mean batch %.1f), %d conns; %d peer failures, %d failovers, %d redials, %d repl bytes, %d shed",
				addrs[i], st.Queries, st.Batches, st.MeanBatchSize, st.ActiveConns,
				st.PeerFailures, st.Failovers, st.Redials, st.ReplicationBytes, st.Shed)
		}
	}
	if trace {
		// One traced query per rank: the rank a query lands on decomposes its
		// own pipeline, and — in a cluster — the ranks it forwarded to or
		// exchanged candidates with report their own stage spans, tagged with
		// their rank, inside the same trace.
		rng := rand.New(rand.NewSource(qseed + 1<<32))
		q := make([]float32, dims)
		for i, c := range clients {
			for d := range q {
				q[d] = rng.Float32()
			}
			start := time.Now()
			nbrs, spans, err := c.KNNTraced(q, k)
			if err != nil {
				return fmt.Errorf("traced query via %s: %w", addrs[i], err)
			}
			elapsed := time.Since(start)
			log.Printf("traced KNN via %s: %d neighbors in %v, %d span(s)", addrs[i], len(nbrs), elapsed.Round(time.Microsecond), len(spans))
			printWaterfall(spans)
		}
	}
	return nil
}

// printWaterfall renders one traced query's spans as a per-stage waterfall,
// grouped by the rank that recorded them (the landing rank's spans first,
// then each remote rank's, in arrival order). Bars share one scale; span
// start offsets are relative to each recording rank's own arrival, so bars
// align within a rank but ranks have independent epochs.
func printWaterfall(spans []panda.TraceSpan) {
	var maxDur int64 = 1
	for _, sp := range spans {
		if sp.Dur > maxDur {
			maxDur = sp.Dur
		}
	}
	const barWidth = 24
	lastRank := int32(-1 << 30)
	for _, sp := range spans {
		if sp.Rank != lastRank {
			if sp.Rank < 0 {
				fmt.Println("  server:")
			} else {
				fmt.Printf("  rank %d:\n", sp.Rank)
			}
			lastRank = sp.Rank
		}
		n := int(sp.Dur * barWidth / maxDur)
		fmt.Printf("    %-15s %10v  %s\n", sp.Stage,
			time.Duration(sp.Dur).Round(time.Microsecond), strings.Repeat("█", n))
	}
}

func same(a, b []panda.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
