// Distributed query tracing: the capture half of the serving layer's
// latency decomposition.
//
// Every answered external request is decomposed into the six wire stages
// (proto.StageNames) and observed into the always-on per-stage histograms —
// that is metrics.go's job. This file handles the sampled/slow slice of the
// same decomposition: assembling the stage durations into spans, collecting
// the spans remote ranks return on traced peer calls, and retaining recent
// traces in a fixed-size lock-free ring served as JSON at /debug/traces.
//
// A request is traced when the client asked for it (the request carried a
// proto trace trailer), or when the server sampled it (Config.TraceSample).
// Either way the reader attaches a traceCtx; the router propagates the
// trace id on every peer call it makes for that request, and each peer
// answers with its own stage spans in the response trailer, so the
// originating rank's trace ends up holding the whole cross-rank waterfall.
// Requests slower than Config.SlowQuery are always captured to the ring,
// even untraced — those records carry the origin's stage decomposition but
// no remote spans (no trace id was on the wire to collect them under).
//
// Span Start offsets are nanoseconds relative to the RECORDING rank's own
// arrival stamp for the request it served; they are comparable within one
// rank but not across ranks (no clock synchronization is assumed — the
// decode span starts negative because decoding precedes arrival).
package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"panda/internal/proto"
)

// traceRingSize is how many recent traces each server retains for
// /debug/traces. Fixed: the ring is a debugging aid, not a store.
const traceRingSize = 128

// traceCtx rides a traced request from the reader to its observation site,
// accumulating the spans remote ranks returned for it. Allocated only for
// traced requests — untraced requests carry a nil pointer and pay nothing.
type traceCtx struct {
	id uint64

	mu     sync.Mutex
	remote []proto.TraceSpan
}

func newTraceCtx(id uint64) *traceCtx { return &traceCtx{id: id} }

// appendTrailer appends the request trace trailer when tracing is on.
// Nil-safe: the untraced path encodes nothing.
func (tc *traceCtx) appendTrailer(b []byte) []byte {
	if tc == nil {
		return b
	}
	return proto.AppendTraceRequest(b, tc.id)
}

// addRemote records spans a peer returned for this trace. Nil-safe; called
// concurrently by the router's parallel shard legs.
func (tc *traceCtx) addRemote(spans []proto.TraceSpan) {
	if tc == nil || len(spans) == 0 {
		return
	}
	tc.mu.Lock()
	tc.remote = append(tc.remote, spans...)
	tc.mu.Unlock()
}

// remoteSpans returns a copy of the collected remote spans.
func (tc *traceCtx) remoteSpans() []proto.TraceSpan {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]proto.TraceSpan(nil), tc.remote...)
}

// stageSpans tiles the six stage durations into contiguous spans relative
// to arrival: decode ends at offset 0, the remaining stages follow in
// pipeline order, so the last span ends at the sum of the post-arrival
// stages — the end-to-end latency for the dispatcher path, and the per-leg
// attribution for routed batches whose legs overlap.
func stageSpans(dst []proto.TraceSpan, rank int32, st [proto.NumStages]time.Duration) []proto.TraceSpan {
	dst = append(dst, proto.TraceSpan{
		Stage: proto.StageDecode, Rank: rank,
		Start: -int64(st[proto.StageDecode]), Dur: int64(st[proto.StageDecode]),
	})
	off := int64(0)
	for _, stage := range [...]uint8{
		proto.StageQueueWait, proto.StageLinger, proto.StageEngine,
		proto.StageRemoteExchange, proto.StageResponseWrite,
	} {
		d := int64(st[stage])
		dst = append(dst, proto.TraceSpan{Stage: stage, Rank: rank, Start: off, Dur: d})
		off += d
	}
	return dst
}

// TraceSpanRecord is one span of a captured trace, stage resolved to its
// exposition label.
type TraceSpanRecord struct {
	Stage string `json:"stage"`
	Rank  int32  `json:"rank"`
	Start int64  `json:"start_ns"` // relative to the recording rank's arrival
	Dur   int64  `json:"dur_ns"`
}

// Trace is one captured request: the origin rank's stage decomposition plus
// any spans remote ranks contributed. Served as JSON by /debug/traces.
type Trace struct {
	Seq     uint64            `json:"seq"` // capture order, newest highest
	ID      uint64            `json:"id,omitempty"`
	Kind    string            `json:"kind"`
	Dataset string            `json:"dataset,omitempty"`
	NQ      int               `json:"nq,omitempty"`
	K       int               `json:"k,omitempty"`
	Rank    int32             `json:"rank"` // capturing rank, -1 single-node
	Sampled bool              `json:"sampled"`
	Slow    bool              `json:"slow"`
	Start   time.Time         `json:"start"`
	E2ENS   int64             `json:"e2e_ns"`
	Err     string            `json:"error,omitempty"`
	Spans   []TraceSpanRecord `json:"spans"`
}

// traceKindName labels a wire kind for trace records.
func traceKindName(kind uint8) string {
	switch kind {
	case proto.KindKNN:
		return "knn"
	case proto.KindRadius:
		return "radius"
	case proto.KindShardKNN:
		return "shard_knn"
	case proto.KindShardRemoteKNN:
		return "shard_remote_knn"
	case proto.KindShardRadius:
		return "shard_radius"
	case proto.KindFetchSection:
		return "fetch_section"
	}
	return "other"
}

// traceRing retains the most recent captures. Lock-free: put claims a slot
// with one atomic counter increment and publishes the trace with one atomic
// pointer store, so capture never contends with /debug/traces readers or
// other capture sites.
type traceRing struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[Trace]
}

func newTraceRing(n int) *traceRing {
	return &traceRing{slots: make([]atomic.Pointer[Trace], n)}
}

// put publishes t, overwriting the oldest slot. t must not be mutated
// afterwards (readers hold it without synchronization).
func (r *traceRing) put(t *Trace) {
	seq := r.seq.Add(1)
	t.Seq = seq
	r.slots[(seq-1)%uint64(len(r.slots))].Store(t)
}

// snapshot returns the retained traces, newest first. Each trace is
// immutable once published, so the returned pointers are safe to share.
func (r *traceRing) snapshot() []*Trace {
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq > out[b].Seq })
	return out
}

// buildTrace assembles the capture record for one observed request.
func (s *Server) buildTrace(p *pending, st [proto.NumStages]time.Duration, e2e time.Duration, end time.Time, slow bool, err error) *Trace {
	t := &Trace{
		Kind:    traceKindName(p.req.Kind),
		NQ:      p.req.NQ,
		K:       p.req.K,
		Rank:    s.rank,
		Slow:    slow,
		Start:   end.Add(-e2e),
		E2ENS:   int64(e2e),
		Dataset: p.eng.id.Name,
	}
	if err != nil {
		t.Err = err.Error()
	}
	spans := stageSpans(nil, s.rank, st)
	if p.trace != nil {
		t.ID = p.trace.id
		t.Sampled = true
		spans = append(spans, p.trace.remoteSpans()...)
	}
	t.Spans = make([]TraceSpanRecord, len(spans))
	for i, sp := range spans {
		t.Spans[i] = TraceSpanRecord{Stage: proto.StageName(sp.Stage), Rank: sp.Rank, Start: sp.Start, Dur: sp.Dur}
	}
	return t
}

// Traces returns the recently captured traces, newest first.
func (s *Server) Traces() []*Trace {
	return s.traces.snapshot()
}

// TracesHandler returns an http.Handler serving the trace ring as JSON
// (mount it at /debug/traces). The document is {"traces": [...]}, newest
// first; see Trace for the per-trace schema.
func (s *Server) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Traces []*Trace `json:"traces"`
		}{s.Traces()})
	})
}
