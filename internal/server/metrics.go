// Serving observability: lock-free latency histograms and a Prometheus
// text-format /metrics endpoint (stdlib only — the exposition format is a
// few lines of text, not worth a dependency).
//
// Request latency is measured from the moment the reader goroutine decodes
// a request off the wire to the moment the flush carrying its response
// returns, so it includes intake queueing, micro-batch assembly, engine
// time, the wait for the rest of its dispatch round, the response write,
// and (cluster mode) forwarding and remote-candidate
// round-trips — the latency a client actually experiences minus the network
// hop. Stats/ping requests are not observed: they carry no query work and
// would only dilute the histogram the loadgen reads.
package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"panda/internal/proto"
)

// latencyBuckets are the histogram upper bounds in seconds, log-spaced from
// 50µs (a warm single-node batched query) to 10s (a failover walking a
// replica chain of dial timeouts). Prometheus convention: each bucket is
// cumulative and an implicit +Inf bucket equals _count.
var latencyBuckets = [...]float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation. Buckets store per-bucket (non-cumulative) counts; the
// exporter accumulates. Readers see a consistent-enough view for
// monitoring: each field is individually atomic, mutually unsynchronized —
// the same contract as the Stats counters.
type histogram struct {
	buckets  [len(latencyBuckets) + 1]atomic.Int64 // last bucket: > largest bound
	count    atomic.Int64
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && s > latencyBuckets[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// metrics aggregates the serving observability state beyond the plain Stats
// counters: per-kind request counts and the per-stage decomposition of
// request latency. The end-to-end histogram lives on the tenants (engine).
type metrics struct {
	// stages decomposes the end-to-end latency into the six wire stages.
	// Every observed request observes every stage (unused stages observe
	// zero), so each stage's count equals the end-to-end count exactly. On
	// a single node the post-arrival stage sums also reconcile with the
	// end-to-end sum; a routed request's parallel legs overlap, so its
	// stages can sum to more than its latency.
	stages [proto.NumStages]histogram

	// Per-kind request counters (requests, not queries: a 64-query batch
	// counts once here and 64 times in Stats.Queries).
	knnRequests    atomic.Int64
	radiusRequests atomic.Int64
	otherRequests  atomic.Int64 // bounded-candidate and section kinds
}

// observeRequest is the single observation site for one answered external
// request: the per-stage histograms, the per-kind counter, slow-query
// accounting, trace capture, and the tenant's end-to-end histogram. Every
// stage count therefore equals the end-to-end count. The response-write
// stage runs from writeStart, when the request's answer was ready, to end,
// the post-flush stamp: besides encoding and the write it absorbs the
// engine calls of the round's later (tree, k) and radius groups, which the
// engine stage charges only to their own requests.
func (s *Server) observeRequest(p *pending, writeStart, end time.Time, reqErr error) {
	st := p.stages(writeStart, end)
	e2e := end.Sub(p.arrived)
	for i := range st {
		s.metrics.stages[i].observe(st[i])
	}
	switch p.req.Kind {
	case proto.KindKNN, proto.KindShardKNN:
		s.metrics.knnRequests.Add(1)
	case proto.KindRadius, proto.KindShardRadius:
		s.metrics.radiusRequests.Add(1)
	default:
		s.metrics.otherRequests.Add(1)
	}
	slow := s.cfg.SlowQuery > 0 && e2e >= s.cfg.SlowQuery
	if slow {
		p.eng.slow.Add(1)
	}
	if p.trace != nil || slow {
		s.traces.put(s.buildTrace(p, st, e2e, end, slow, reqErr))
	}
	// The end-to-end histogram goes last: once its count reaches n, the
	// stage, kind, slow and trace records of those n requests are all in
	// place.
	p.eng.latency.observe(e2e)
}

// WriteMetrics writes the server's counters, gauges, and latency histograms
// in the Prometheus text exposition format. Safe for concurrent use. Every
// global query, shed, slow and latency series is the sum of its per-tenant
// series, taken here at read time.
func (s *Server) WriteMetrics(out io.Writer) {
	w := &metricsWriter{w: out}
	st := s.Stats()
	tenants := make([]*engine, len(s.reg.order))
	latency := make([]*histogram, len(s.reg.order))
	var slow int64
	for i, name := range s.reg.order {
		tenants[i] = s.reg.tenants[name]
		latency[i] = &tenants[i].latency
		slow += tenants[i].slow.Load()
	}
	w.counter("panda_queries_total", "Queries answered since start (batch requests count each contained query).", float64(st.Queries))
	w.counter("panda_batches_total", "Coalesced dispatch rounds run by the micro-batching engine.", float64(st.Batches))
	w.counter("panda_shed_total", "Requests refused with an overload error at the admission limit.", float64(st.Shed))
	w.counter("panda_peer_failures_total", "Peer calls failed at the transport level (cluster mode).", float64(st.PeerFailures))
	w.counter("panda_failovers_total", "Shard queries answered by a replica because the primary was unreachable.", float64(st.Failovers))
	w.counter("panda_redials_total", "Peer reconnect attempts after a broken link.", float64(st.Redials))
	w.counter("panda_replication_bytes_total", "Snapshot bytes served to re-replicating or joining peers.", float64(st.ReplicationBytes))
	w.counter("panda_slow_total", "Requests slower than the -slow-query threshold (0 when disabled).", float64(slow))
	w.gauge("panda_active_conns", "Currently open client connections.", float64(st.ActiveConns))
	w.gauge("panda_inflight_queries", "Admitted queries not yet answered.", float64(s.inflight.Load()))
	w.gauge("panda_mean_batch_size", "Achieved micro-batching factor (queries per dispatch round).", st.MeanBatchSize)

	// Runtime-side signal for overload investigations: scheduler and heap
	// state at scrape time. ReadMemStats is a stop-the-world of microseconds
	// at scrape frequency — negligible next to query service times.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.gauge("panda_goroutines", "Goroutines at scrape time.", float64(runtime.NumGoroutine()))
	w.gauge("panda_heap_inuse_bytes", "Bytes in in-use heap spans at scrape time.", float64(ms.HeapInuse))
	w.counter("panda_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.", float64(ms.PauseTotalNs)/1e9)
	w.counter("panda_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))

	m := &s.metrics
	w.head("panda_requests_total", "Answered requests by wire kind.", "counter")
	w.labeled("panda_requests_total", `kind="knn"`, float64(m.knnRequests.Load()))
	w.labeled("panda_requests_total", `kind="radius"`, float64(m.radiusRequests.Load()))
	w.labeled("panda_requests_total", `kind="other"`, float64(m.otherRequests.Load()))

	w.head("panda_request_latency_seconds", "Request latency from wire decode to response write.", "histogram")
	w.histogram("panda_request_latency_seconds", "", latency...)

	// Stage decomposition of the histogram above. Every request observes
	// every stage (zero for stages it did not use), so each stage's _count
	// equals the end-to-end _count; on a single node the _sum over the
	// post-arrival stages (all but "decode") reconciles with the end-to-end
	// _sum.
	w.head("panda_stage_latency_seconds", "Per-stage decomposition of request latency (every request observes every stage; unused stages observe zero).", "histogram")
	for si := range m.stages {
		w.histogram("panda_stage_latency_seconds", `stage="`+proto.StageName(uint8(si))+`"`, &m.stages[si])
	}

	// Per-tenant series alongside the globals, which are their sums.
	// Dataset names are restricted to [A-Za-z0-9._-] at registration, so
	// they embed in label values without escaping.
	w.gauge("panda_tenants", "Datasets registered with the serving process.", float64(len(s.reg.order)))
	w.head("panda_tenant_queries_total", "Queries answered per dataset (sums to panda_queries_total).", "counter")
	for i, e := range tenants {
		w.labeled("panda_tenant_queries_total", `dataset="`+s.reg.order[i]+`"`, float64(e.queries.Load()))
	}
	w.head("panda_tenant_shed_total", "Requests refused at the admission limit per dataset (sums to panda_shed_total).", "counter")
	for i, e := range tenants {
		w.labeled("panda_tenant_shed_total", `dataset="`+s.reg.order[i]+`"`, float64(e.shed.Load()))
	}
	w.head("panda_tenant_slow_total", "Requests slower than the -slow-query threshold per dataset (sums to panda_slow_total).", "counter")
	for i, e := range tenants {
		w.labeled("panda_tenant_slow_total", `dataset="`+s.reg.order[i]+`"`, float64(e.slow.Load()))
	}
	w.head("panda_tenant_request_latency_seconds", "Request latency per dataset (counts sum to the global histogram).", "histogram")
	for i := range tenants {
		w.histogram("panda_tenant_request_latency_seconds", `dataset="`+s.reg.order[i]+`"`, latency[i])
	}
}

// MetricsHandler returns an http.Handler serving the Prometheus text
// exposition of this server's metrics (mount it at /metrics).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
}

// formatBound renders a bucket bound the way Prometheus clients expect
// (shortest decimal, no exponent for these magnitudes).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// metricsWriter accumulates exposition lines. Kept trivial on purpose: the
// format is "# HELP", "# TYPE", then one "name[{labels}] value" per sample.
type metricsWriter struct {
	w   io.Writer
	buf []byte
}

func (mw *metricsWriter) head(name, help, typ string) {
	mw.buf = mw.buf[:0]
	mw.buf = append(mw.buf, "# HELP "...)
	mw.buf = append(mw.buf, name...)
	mw.buf = append(mw.buf, ' ')
	mw.buf = append(mw.buf, help...)
	mw.buf = append(mw.buf, "\n# TYPE "...)
	mw.buf = append(mw.buf, name...)
	mw.buf = append(mw.buf, ' ')
	mw.buf = append(mw.buf, typ...)
	mw.buf = append(mw.buf, '\n')
	mw.w.Write(mw.buf)
}

// histogram writes the _bucket, _sum and _count samples of the sum of hs,
// with labels ("" for none) leading each sample's label set.
func (mw *metricsWriter) histogram(name, labels string, hs ...*histogram) {
	le := `le="`
	if labels != "" {
		le = labels + `,le="`
	}
	var cum, sum, count int64
	for i := range len(latencyBuckets) + 1 {
		for _, h := range hs {
			cum += h.buckets[i].Load()
		}
		bound := "+Inf"
		if i < len(latencyBuckets) {
			bound = formatBound(latencyBuckets[i])
		}
		mw.labeled(name+"_bucket", le+bound+`"`, float64(cum))
	}
	for _, h := range hs {
		sum += h.sumNanos.Load()
		count += h.count.Load()
	}
	mw.labeled(name+"_sum", labels, float64(sum)/1e9)
	mw.labeled(name+"_count", labels, float64(count))
}

// labeled writes one sample; empty labels write the bare metric name.
func (mw *metricsWriter) labeled(name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(mw.w, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
		return
	}
	fmt.Fprintf(mw.w, "%s{%s} %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

func (mw *metricsWriter) counter(name, help string, v float64) {
	mw.head(name, help, "counter")
	mw.labeled(name, "", v)
}

func (mw *metricsWriter) gauge(name, help string, v float64) {
	mw.head(name, help, "gauge")
	mw.labeled(name, "", v)
}
