package proto

import (
	"bytes"
	"errors"
	"testing"

	"panda/internal/kdtree"
)

// TestTraceRequestRoundTrip checks the request trailer on every traceable
// kind: the trailer decodes to (Traced, TraceID), and re-encoding produces
// the original bytes.
func TestTraceRequestRoundTrip(t *testing.T) {
	q := []float32{1, 2, 3}
	cases := []struct {
		name string
		dims int
		enc  func() []byte
	}{
		{"knn", 3, func() []byte { return AppendKNNRequest(nil, 1, 5, q, 3) }},
		{"radius", 3, func() []byte { return AppendRadiusRequest(nil, 2, 0.5, q) }},
		{"remote-knn", 3, func() []byte { return AppendShardRemoteKNNRequest(nil, 3, 0, 5, 0.25, q) }},
		{"remote-radius", 3, func() []byte { return AppendShardRadiusRequest(nil, 4, 0, 0.5, q) }},
		{"shard-knn", 3, func() []byte { return AppendShardKNNRequest(nil, 5, 2, 5, q, 3) }},
		{"shard-remote-knn", 3, func() []byte { return AppendShardRemoteKNNRequest(nil, 6, 2, 5, 0.25, q) }},
		{"shard-radius", 3, func() []byte { return AppendShardRadiusRequest(nil, 7, 2, 0.5, q) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := tc.enc()
			traced := AppendTraceRequest(tc.enc(), 0xCAFEBABE)
			if len(traced) != len(plain)+TraceTrailerLen {
				t.Fatalf("trailer added %d bytes, want %d", len(traced)-len(plain), TraceTrailerLen)
			}
			var req Request
			if err := ConsumeRequest(plain, tc.dims, &req); err != nil {
				t.Fatalf("plain: %v", err)
			}
			if req.Traced || req.TraceID != 0 {
				t.Fatalf("plain request decoded as traced: %+v", req)
			}
			if err := ConsumeRequest(traced, tc.dims, &req); err != nil {
				t.Fatalf("traced: %v", err)
			}
			if !req.Traced || req.TraceID != 0xCAFEBABE {
				t.Fatalf("trailer lost: traced=%v id=%x", req.Traced, req.TraceID)
			}
			if !TraceableKind(req.Kind) {
				t.Fatalf("kind %d decoded a trailer but is not traceable", req.Kind)
			}
		})
	}
}

// TestTraceRequestUntracedByteIdentical pins the zero-cost-when-off claim:
// encoding without a trailer produces exactly the pre-trace bytes (the
// encoders themselves are untouched, so this is a change-detector for
// accidental hot-path additions).
func TestTraceRequestUntracedByteIdentical(t *testing.T) {
	got := AppendKNNRequest(nil, 0x0102030405060708, 5, []float32{1}, 1)
	want := []byte{
		KindKNN,
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // id
		5, 0, 0, 0, // k
		1, 0, 0, 0, // nq
		1, 0, 0, 0, // coords length prefix
		0, 0, 0x80, 0x3F, // 1.0f
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("untraced KNN encoding changed:\n got %x\nwant %x", got, want)
	}
}

// TestTraceRequestMalformed: wrong marker, wrong flags, trailers on
// untraceable kinds, and truncated trailers must all be rejected as
// structural errors.
func TestTraceRequestMalformed(t *testing.T) {
	base := func() []byte { return AppendKNNRequest(nil, 1, 5, []float32{1, 2, 3}, 3) }
	var req Request
	for name, payload := range map[string][]byte{
		"wrong marker":     append(base(), 'X', 1, 0, 0, 0, 0, 0, 0, 0, 0),
		"zero flags":       append(base(), 'T', 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"reserved flags":   append(base(), 'T', 3, 0, 0, 0, 0, 0, 0, 0, 0),
		"truncated":        append(base(), 'T', 1, 0, 0),
		"oversized":        append(base(), 'T', 1, 0, 0, 0, 0, 0, 0, 0, 0, 99),
		"stats trailer":    AppendTraceRequest(AppendStatsRequest(nil, 2), 7),
		"ping trailer":     AppendTraceRequest(AppendPingRequest(nil, 3), 7),
		"fetch trailer":    AppendTraceRequest(AppendFetchSectionRequest(nil, 4, 0, 0, 4096), 7),
		"double trailer":   AppendTraceRequest(AppendTraceRequest(base(), 7), 8),
		"marker mid-frame": append(base()[:5], 'T', 1, 0, 0, 0, 0, 0, 0, 0, 0),
	} {
		if err := ConsumeRequest(payload, 3, &req); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

// TestTraceSpansRoundTrip checks the response trailer: spans survive a
// round trip verbatim, and an untraced response decodes with none.
func TestTraceSpansRoundTrip(t *testing.T) {
	offsets := []int32{0, 2}
	flat := []kdtree.Neighbor{{ID: 1, Dist2: 0.5}, {ID: 2, Dist2: 0.75}}
	spans := []TraceSpan{
		{Stage: StageDecode, Rank: -1, Start: -1500, Dur: 1500},
		{Stage: StageQueueWait, Rank: 0, Start: 0, Dur: 20000},
		{Stage: StageEngine, Rank: 3, Start: 20000, Dur: 100000},
		{Stage: StageRemoteExchange, Rank: 0, Start: 120000, Dur: 80000},
		{Stage: StageResponseWrite, Rank: 0, Start: 200000, Dur: 3000},
	}
	payload := AppendTraceSpans(AppendNeighborsResponse(nil, 9, offsets, flat), 0xF00D, spans)
	var resp Response
	if err := ConsumeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != 0xF00D {
		t.Fatalf("trace id %x", resp.TraceID)
	}
	if len(resp.Spans) != len(spans) {
		t.Fatalf("%d spans, want %d", len(resp.Spans), len(spans))
	}
	for i := range spans {
		if resp.Spans[i] != spans[i] {
			t.Fatalf("span %d: %+v != %+v", i, resp.Spans[i], spans[i])
		}
	}
	if len(resp.Flat) != 2 || resp.Flat[0] != flat[0] || resp.Flat[1] != flat[1] {
		t.Fatalf("neighbors corrupted by trailer: %+v", resp.Flat)
	}

	plain := AppendNeighborsResponse(nil, 9, offsets, flat)
	if err := ConsumeResponse(plain, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Spans) != 0 || resp.TraceID != 0 {
		t.Fatalf("untraced response decoded spans: %+v", resp.Spans)
	}
}

// TestTraceSpansMalformed: bad marker, over-cap counts, unknown stages, and
// truncation are rejected.
func TestTraceSpansMalformed(t *testing.T) {
	base := func() []byte {
		return AppendNeighborsResponse(nil, 1, []int32{0, 1}, []kdtree.Neighbor{{ID: 1, Dist2: 2}})
	}
	var resp Response
	overCap := AppendTraceSpans(base(), 1, nil)
	overCap[len(overCap)-4] = 0xFF // span count 255 < cap is fine; claim 0xFFFF instead
	overCap[len(overCap)-3] = 0xFF
	unknownStage := AppendTraceSpans(base(), 1, []TraceSpan{{Stage: NumStages, Rank: 0}})
	for name, payload := range map[string][]byte{
		"bad marker":    append(base(), 'X', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"over cap":      overCap,
		"unknown stage": unknownStage,
		"truncated":     AppendTraceSpans(base(), 1, []TraceSpan{{Stage: StageEngine}})[:len(base())+14],
	} {
		if err := ConsumeResponse(payload, &resp); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTraceSpansCap: the encoder truncates at MaxTraceSpans rather than
// producing an undecodable trailer.
func TestTraceSpansCap(t *testing.T) {
	spans := make([]TraceSpan, MaxTraceSpans+10)
	for i := range spans {
		spans[i] = TraceSpan{Stage: StageEngine, Rank: int32(i)}
	}
	payload := AppendTraceSpans(
		AppendNeighborsResponse(nil, 1, []int32{0, 1}, []kdtree.Neighbor{{ID: 1, Dist2: 2}}),
		1, spans)
	var resp Response
	if err := ConsumeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Spans) != MaxTraceSpans {
		t.Fatalf("%d spans, want exactly %d", len(resp.Spans), MaxTraceSpans)
	}
}
