// Command panda-loadgen drives a panda serving process (or a warm-started
// cluster) with an open-loop query stream and reports the latency
// distribution and achieved throughput.
//
// Open loop means arrivals follow a Poisson process at the offered rate and
// are NOT gated on responses: a slow server does not slow the generator
// down, so queueing delay shows up in the measured latency instead of being
// hidden by a closed loop's self-throttling (coordinated omission). That is
// the load shape a serving front sees from a large independent user
// population — a million users do not wait for each other.
//
// Usage:
//
//	panda-loadgen -addrs 127.0.0.1:7077 -rate 2000 -duration 10s
//	panda-loadgen -addrs 127.0.0.1:7071,127.0.0.1:7072 \
//	    -rates 500,1000,2000,4000 -duration 5s -out BENCH_serving.json
//
// The query mix is configurable: -mix sets the radius-search fraction, -ks
// a weighted k distribution ("8:0.7,32:0.3"), and -skew sends that fraction
// of queries to a small hot set of -hot repeated points (the rest draw
// fresh uniform points), modelling skewed real-world traffic. Queries are
// uniform in [0,1)^dims, matching the `uniform` synthetic dataset family.
//
// Against a multi-tenant server, -tenants "a=0.8,b=0.2" splits arrivals
// across datasets by weight: each tenant gets its own bound connections and
// query stream (tenants may differ in dimensionality), and the report gains
// per-tenant completion counts and latency percentiles next to the globals.
//
// Each entry in -rates is one run; the JSON report (-out) accumulates a
// throughput-vs-offered-load curve with p50/p95/p99/p999 latency per run.
// With -metrics, the server's Prometheus endpoint is scraped and parsed
// after each run and its shed/query counters are folded into the report.
//
// Overload refusals (the server's admission limit) are counted separately
// from failures: a shed query is the server working as designed. The
// process exits nonzero only on transport errors or malformed responses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"panda"
	"panda/internal/proto"
)

func main() {
	var (
		addrs    = flag.String("addrs", "127.0.0.1:7077", "comma-separated server addresses (one, or every cluster rank)")
		rate     = flag.Float64("rate", 1000, "offered load in queries/second (open loop, Poisson arrivals)")
		rates    = flag.String("rates", "", "comma-separated offered rates; one run per rate (overrides -rate)")
		duration = flag.Duration("duration", 10*time.Second, "measured duration per run")
		warmup   = flag.Duration("warmup", time.Second, "unmeasured warmup before each run")
		conns    = flag.Int("conns", 4, "client connections, round-robined across -addrs")
		mix      = flag.Float64("mix", 0, "fraction of queries that are radius searches [0,1]")
		ks       = flag.String("ks", "8", "weighted k distribution for KNN queries, e.g. \"8:0.7,32:0.3\"")
		radius   = flag.Float64("radius", 0.01, "squared radius for radius searches")
		skew     = flag.Float64("skew", 0, "fraction of queries drawn from a small hot set [0,1)")
		hot      = flag.Int("hot", 64, "hot-set size (with -skew)")
		seed     = flag.Int64("seed", 1, "query generator seed")
		tenants  = flag.String("tenants", "", "weighted multi-tenant mix, e.g. \"a=0.8,b=0.2\": each arrival binds to one dataset of a multi-tenant server; empty = the server's default tenant")
		outPath  = flag.String("out", "", "write the JSON report here (e.g. BENCH_serving.json)")
		metrics  = flag.String("metrics", "", "server /metrics URL to scrape and fold into the report")
		label    = flag.String("label", "", "run label recorded in the report (e.g. single, cluster4)")
		maxOut   = flag.Int("max-outstanding", 8192, "outstanding-query cap; arrivals beyond it are counted as lagged, not sent")
	)
	flag.Parse()
	if err := run(*addrs, *rate, *rates, *duration, *warmup, *conns, *mix, *ks, *radius, *skew, *hot, *seed, *tenants, *outPath, *metrics, *label, *maxOut); err != nil {
		fmt.Fprintln(os.Stderr, "panda-loadgen:", err)
		os.Exit(1)
	}
}

// kChoice is one entry of the weighted k distribution.
type kChoice struct {
	k      int
	weight float64
}

func parseKs(s string) ([]kChoice, error) {
	var out []kChoice
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kStr, wStr, weighted := strings.Cut(part, ":")
		k, err := strconv.Atoi(kStr)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad k %q in -ks", kStr)
		}
		w := 1.0
		if weighted {
			if w, err = strconv.ParseFloat(wStr, 64); err != nil || w <= 0 {
				return nil, fmt.Errorf("bad weight %q in -ks", wStr)
			}
		}
		out = append(out, kChoice{k: k, weight: w})
		total += w
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-ks is empty")
	}
	for i := range out {
		out[i].weight /= total
	}
	return out, nil
}

// tenantChoice is one entry of the weighted tenant mix.
type tenantChoice struct {
	name   string
	weight float64
}

// parseTenants parses "a=0.8,b=0.2" into a normalized weighted mix. Empty
// input is the single default tenant (weight 1), the pre-tenancy behavior.
func parseTenants(s string) ([]tenantChoice, error) {
	if s == "" {
		return []tenantChoice{{name: "", weight: 1}}, nil
	}
	var out []tenantChoice
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wStr, weighted := strings.Cut(part, "=")
		if name == "" {
			return nil, fmt.Errorf("empty tenant name in -tenants")
		}
		w := 1.0
		if weighted {
			var err error
			if w, err = strconv.ParseFloat(wStr, 64); err != nil || w <= 0 {
				return nil, fmt.Errorf("bad weight %q for tenant %q in -tenants", wStr, name)
			}
		}
		for _, c := range out {
			if c.name == name {
				return nil, fmt.Errorf("tenant %q listed twice in -tenants", name)
			}
		}
		out = append(out, tenantChoice{name: name, weight: w})
		total += w
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-tenants is empty")
	}
	for i := range out {
		out[i].weight /= total
	}
	return out, nil
}

func parseRates(single float64, list string) ([]float64, error) {
	if list == "" {
		return []float64{single}, nil
	}
	var out []float64
	for _, part := range strings.Split(list, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q in -rates", part)
		}
		out = append(out, r)
	}
	return out, nil
}

// querySource generates the query stream: points, kinds, and k values. Not
// safe for concurrent use; the scheduler goroutine owns it and hands each
// arrival a ready-made query so the workers stay allocation-light.
type querySource struct {
	rng    *rand.Rand
	dims   int
	mix    float64
	ks     []kChoice
	radius float32
	skew   float64
	hotSet [][]float32
}

func newQuerySource(dims int, mix float64, ks []kChoice, radius float32, skew float64, hot int, seed int64) *querySource {
	qs := &querySource{
		rng:    rand.New(rand.NewSource(seed)),
		dims:   dims,
		mix:    mix,
		ks:     ks,
		radius: radius,
		skew:   skew,
	}
	if skew > 0 {
		qs.hotSet = make([][]float32, hot)
		for i := range qs.hotSet {
			qs.hotSet[i] = qs.freshPoint()
		}
	}
	return qs
}

func (qs *querySource) freshPoint() []float32 {
	p := make([]float32, qs.dims)
	for i := range p {
		p[i] = qs.rng.Float32()
	}
	return p
}

func (qs *querySource) point() []float32 {
	if qs.skew > 0 && qs.rng.Float64() < qs.skew {
		return qs.hotSet[qs.rng.Intn(len(qs.hotSet))]
	}
	return qs.freshPoint()
}

func (qs *querySource) pickK() int {
	r := qs.rng.Float64()
	for _, c := range qs.ks {
		if r -= c.weight; r < 0 {
			return c.k
		}
	}
	return qs.ks[len(qs.ks)-1].k
}

// query is one scheduled arrival.
type query struct {
	point  []float32
	k      int // 0 means radius search
	radius float32
}

func (qs *querySource) next() query {
	q := query{point: qs.point()}
	if qs.mix > 0 && qs.rng.Float64() < qs.mix {
		q.radius = qs.radius
	} else {
		q.k = qs.pickK()
	}
	return q
}

// latencySummary is the percentile block shared by the global and
// per-tenant report entries.
type latencySummary struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// summarize sorts latencies in place and reduces them to percentiles (µs).
func summarize(latencies []time.Duration) latencySummary {
	var s latencySummary
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	n := len(latencies)
	if n == 0 {
		return s
	}
	pct := func(p float64) float64 {
		idx := int(p * float64(n-1))
		return float64(latencies[idx].Microseconds())
	}
	s.P50 = pct(0.50)
	s.P95 = pct(0.95)
	s.P99 = pct(0.99)
	s.P999 = pct(0.999)
	s.Max = float64(latencies[n-1].Microseconds())
	var sum time.Duration
	for _, d := range latencies {
		sum += d
	}
	s.Mean = float64(sum.Microseconds()) / float64(n)
	return s
}

// tenantResult is one tenant's slice of a measured run.
type tenantResult struct {
	Weight     float64        `json:"weight"`
	Completed  int64          `json:"completed"`
	Overloaded int64          `json:"overloaded"`
	Errors     int64          `json:"errors"`
	Throughput float64        `json:"throughput_qps"`
	LatencyUS  latencySummary `json:"latency_us"`
}

// runResult aggregates one measured run.
type runResult struct {
	Label       string  `json:"label,omitempty"`
	OfferedRate float64 `json:"offered_rate_qps"`
	DurationSec float64 `json:"duration_s"`
	Completed   int64   `json:"completed"`
	Overloaded  int64   `json:"overloaded"`
	Errors      int64   `json:"errors"`
	Lagged      int64   `json:"lagged"`
	Throughput  float64 `json:"throughput_qps"`

	LatencyUS latencySummary `json:"latency_us"`

	// Tenants breaks the run down per dataset (present with -tenants).
	Tenants map[string]tenantResult `json:"tenants,omitempty"`

	ServerShed    int64 `json:"server_shed,omitempty"`
	ServerQueries int64 `json:"server_queries,omitempty"`

	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// report is the BENCH_serving.json document.
type report struct {
	Bench string `json:"bench"`
	Host  struct {
		Go         string `json:"go"`
		OS         string `json:"os"`
		Arch       string `json:"arch"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	Addrs     []string    `json:"addrs"`
	Mix       float64     `json:"radius_mix"`
	Ks        string      `json:"k_distribution"`
	Skew      float64     `json:"skew"`
	TenantMix string      `json:"tenant_mix,omitempty"`
	Runs      []runResult `json:"runs"`
}

// tenantLoad is one tenant's share of the generated load: its own client
// connections (bound at handshake) and its own query source (tenants can
// differ in dimensionality).
type tenantLoad struct {
	choice  tenantChoice
	clients []*panda.Client
	qs      *querySource
}

func run(addrList string, rate float64, rateList string, duration, warmup time.Duration,
	conns int, mix float64, ksSpec string, radius, skew float64, hot int, seed int64,
	tenantSpec, outPath, metricsURL, label string, maxOut int) error {
	addrs := strings.Split(addrList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	kcs, err := parseKs(ksSpec)
	if err != nil {
		return err
	}
	offered, err := parseRates(rate, rateList)
	if err != nil {
		return err
	}
	choices, err := parseTenants(tenantSpec)
	if err != nil {
		return err
	}
	if conns < 1 {
		conns = 1
	}

	// Clients never retry: every arrival is exactly one attempt, so the
	// measured latency and the overload count reflect the server's behavior,
	// not the retry policy's. Each tenant gets its own connections — the
	// tenant binding is per connection, chosen at handshake.
	tls := make([]*tenantLoad, len(choices))
	for ti, choice := range choices {
		tl := &tenantLoad{choice: choice, clients: make([]*panda.Client, conns)}
		for i := range tl.clients {
			rotated := append(append([]string(nil), addrs[i%len(addrs):]...), addrs[:i%len(addrs)]...)
			c, err := panda.Dialer{Dataset: choice.name}.Dial(rotated...)
			if err != nil {
				return fmt.Errorf("tenant %q: %w", choice.name, err)
			}
			defer c.Close()
			tl.clients[i] = c
		}
		id := tl.clients[0].DatasetID()
		log.Printf("tenant %s (weight %.2f): connected %d clients to %d address(es): %d dims, %d points",
			id.Name, choice.weight, conns, len(addrs), id.Dims, id.Points)
		tls[ti] = tl
	}

	rep := &report{Bench: "serving", Addrs: addrs, Mix: mix, Ks: ksSpec, Skew: skew, TenantMix: tenantSpec}
	rep.Host.Go = runtime.Version()
	rep.Host.OS = runtime.GOOS
	rep.Host.Arch = runtime.GOARCH
	rep.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)

	var totalErrors int64
	for _, r := range offered {
		for ti, tl := range tls {
			// A fresh deterministic source per run and tenant; the offset
			// keeps tenants from replaying each other's point stream.
			tl.qs = newQuerySource(tl.clients[0].Dims(), mix, kcs, float32(radius), skew, hot, seed+int64(ti)*7919)
		}
		res, err := oneRun(tls, rand.New(rand.NewSource(seed)), r, duration, warmup, maxOut)
		if err != nil {
			return err
		}
		res.Label = label
		if st, err := sumStats(addrs); err == nil {
			res.ServerShed = st.Shed
			res.ServerQueries = st.Queries
		}
		if metricsURL != "" {
			m, err := scrapeMetrics(metricsURL)
			if err != nil {
				return fmt.Errorf("scraping %s: %w", metricsURL, err)
			}
			res.Metrics = map[string]float64{
				"panda_shed_total":                                m["panda_shed_total"],
				"panda_queries_total":                             m["panda_queries_total"],
				"panda_request_latency_seconds_count":             m["panda_request_latency_seconds_count"],
				"panda_mean_batch_size":                           m["panda_mean_batch_size"],
				`panda_request_latency_seconds_bucket{le="+Inf"}`: m[`panda_request_latency_seconds_bucket{le="+Inf"}`],
			}
			// The per-stage latency decomposition: count and summed seconds
			// per pipeline stage, so the report shows where the scraped
			// rank's request time went (every observed request observes all
			// stages, so each count equals the end-to-end count).
			for _, stage := range proto.StageNames {
				for _, part := range []string{"count", "sum"} {
					key := "panda_stage_latency_seconds_" + part + `{stage="` + stage + `"}`
					res.Metrics[key] = m[key]
				}
			}
			for _, tl := range tls {
				if name := tl.clients[0].DatasetID().Name; name != "" {
					for _, metric := range []string{"panda_tenant_queries_total", "panda_tenant_shed_total", "panda_tenant_request_latency_seconds_count"} {
						key := metric + `{dataset="` + name + `"}`
						res.Metrics[key] = m[key]
					}
				}
			}
		}
		totalErrors += res.Errors
		rep.Runs = append(rep.Runs, res)
		log.Printf("rate %.0f/s: %d ok, %d overloaded, %d errors, %d lagged; %.0f qps achieved; p50=%.0fµs p95=%.0fµs p99=%.0fµs p999=%.0fµs",
			r, res.Completed, res.Overloaded, res.Errors, res.Lagged, res.Throughput,
			res.LatencyUS.P50, res.LatencyUS.P95, res.LatencyUS.P99, res.LatencyUS.P999)
		for name, tr := range res.Tenants {
			log.Printf("  tenant %s: %d ok, %d overloaded; %.0f qps; p50=%.0fµs p99=%.0fµs",
				name, tr.Completed, tr.Overloaded, tr.Throughput, tr.LatencyUS.P50, tr.LatencyUS.P99)
		}
	}

	if outPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(outPath, blob, 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s (%d runs)", outPath, len(rep.Runs))
	}
	if totalErrors > 0 {
		return fmt.Errorf("%d queries failed with non-overload errors", totalErrors)
	}
	return nil
}

// tenantMeasure accumulates one tenant's outcomes during a run.
type tenantMeasure struct {
	mu        sync.Mutex
	latencies []time.Duration
	completed atomic.Int64
	overload  atomic.Int64
	errs      atomic.Int64
}

// oneRun offers load at rate qps for warmup+duration and measures the
// post-warmup window. The scheduler goroutine sleeps out exponential
// inter-arrival gaps, assigns each arrival a tenant by weight, and hands it
// to a goroutine; outstanding arrivals are capped at maxOut so a stalled
// server cannot run the generator out of memory — arrivals over the cap are
// counted as lagged (they represent queries a real fleet would have sent
// into the backlog).
func oneRun(tls []*tenantLoad, arrivals *rand.Rand, rate float64, duration, warmup time.Duration, maxOut int) (runResult, error) {
	res := runResult{OfferedRate: rate, DurationSec: duration.Seconds()}

	var (
		lagged    atomic.Int64
		measuring atomic.Bool
		wg        sync.WaitGroup
	)
	measures := make([]*tenantMeasure, len(tls))
	for i := range measures {
		measures[i] = &tenantMeasure{}
	}
	sem := make(chan struct{}, maxOut)

	issue := func(cl *panda.Client, m *tenantMeasure, q query, record bool) {
		defer wg.Done()
		defer func() { <-sem }()
		start := time.Now()
		var err error
		if q.k > 0 {
			_, err = cl.KNN(q.point, q.k)
		} else {
			_, err = cl.RadiusSearch(q.point, q.radius)
		}
		lat := time.Since(start)
		if !record {
			return
		}
		switch {
		case err == nil:
			m.completed.Add(1)
			m.mu.Lock()
			m.latencies = append(m.latencies, lat)
			m.mu.Unlock()
		case panda.IsOverloaded(err):
			m.overload.Add(1)
		default:
			m.errs.Add(1)
		}
	}

	interarrival := func() time.Duration {
		return time.Duration(arrivals.ExpFloat64() / rate * float64(time.Second))
	}
	pickTenant := func() int {
		if len(tls) == 1 {
			return 0
		}
		r := arrivals.Float64()
		for ti, tl := range tls {
			if r -= tl.choice.weight; r < 0 {
				return ti
			}
		}
		return len(tls) - 1
	}

	start := time.Now()
	measureAt := start.Add(warmup)
	end := measureAt.Add(duration)
	next := start
	i := 0
	for {
		now := time.Now()
		if now.After(end) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			now = next
		}
		next = next.Add(interarrival())
		if !measuring.Load() && now.After(measureAt) {
			measuring.Store(true)
		}
		ti := pickTenant()
		tl := tls[ti]
		q := tl.qs.next()
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go issue(tl.clients[i%len(tl.clients)], measures[ti], q, measuring.Load())
			i++
		default:
			if measuring.Load() {
				lagged.Add(1)
			}
		}
	}
	wg.Wait()

	// Global aggregates are the union of the tenant measures; with one
	// (default) tenant this collapses to the pre-tenancy report exactly.
	var all []time.Duration
	named := len(tls) > 1 || tls[0].choice.name != ""
	if named {
		res.Tenants = make(map[string]tenantResult, len(tls))
	}
	for ti, m := range measures {
		res.Completed += m.completed.Load()
		res.Overloaded += m.overload.Load()
		res.Errors += m.errs.Load()
		all = append(all, m.latencies...)
		if named {
			res.Tenants[tls[ti].clients[0].DatasetID().Name] = tenantResult{
				Weight:     tls[ti].choice.weight,
				Completed:  m.completed.Load(),
				Overloaded: m.overload.Load(),
				Errors:     m.errs.Load(),
				Throughput: float64(m.completed.Load()) / duration.Seconds(),
				LatencyUS:  summarize(m.latencies),
			}
		}
	}
	res.Lagged = lagged.Load()
	res.Throughput = float64(res.Completed) / duration.Seconds()
	res.LatencyUS = summarize(all)
	return res, nil
}

// sumStats sums the per-rank serving counters across every address using
// one throwaway connection per rank (a single client's counters alone would
// miss the other ranks' shed counts).
func sumStats(addrs []string) (panda.ServerStats, error) {
	var total panda.ServerStats
	for _, addr := range addrs {
		c, err := panda.Dial(addr)
		if err != nil {
			return total, err
		}
		st, err := c.Stats()
		c.Close()
		if err != nil {
			return total, err
		}
		total.Queries += st.Queries
		total.Shed += st.Shed
		total.Failovers += st.Failovers
		total.PeerFailures += st.PeerFailures
	}
	return total, nil
}

// scrapeMetrics fetches a Prometheus text exposition and parses every
// sample line into name (with labels, verbatim) → value, validating the
// format strictly enough that CI catches a malformed exporter.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 1 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in line %q: %w", line, err)
		}
		out[name] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples in exposition")
	}
	return out, nil
}
