package proto

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"unicode/utf8"

	"panda/internal/kdtree"
)

// FuzzReadHello throws arbitrary bytes at the v3 hello reader: it must never
// panic, never accept a hostile dataset name (over-long, non-UTF-8, embedded
// NULs, control bytes — anything outside [A-Za-z0-9._-]), and whatever it
// accepts must re-encode byte-for-byte.
func FuzzReadHello(f *testing.F) {
	f.Add(AppendHello(nil, ""))
	f.Add(AppendHello(nil, "default"))
	f.Add(AppendHello(nil, "genomes.v2"))
	f.Add(AppendHello(nil, strings.Repeat("x", MaxDatasetName)))
	f.Add(helloPrefix(1))
	f.Add(helloPrefix(2))
	// Hostile names hand-framed past AppendHello's own validation: over-long
	// length prefix, NUL bytes, invalid UTF-8.
	f.Add(append(helloPrefix(Version), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Add(append(helloPrefix(Version), 3, 0, 0, 0, 'a', 0, 'b'))
	f.Add(append(helloPrefix(Version), 2, 0, 0, 0, 0xC3, 0x28))
	f.Add([]byte("PNDQ"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, err := ReadHello(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// ReadHello passes other versions through (the caller rejects them),
		// but never with a dataset name attached.
		if h.Dataset != "" {
			if h.Version != Version {
				t.Fatalf("accepted dataset name on non-v3 version %d", h.Version)
			}
			if err := ValidateDatasetName(h.Dataset); err != nil {
				t.Fatalf("accepted hostile dataset name %q: %v", h.Dataset, err)
			}
			if !utf8.ValidString(h.Dataset) || strings.ContainsRune(h.Dataset, 0) {
				t.Fatalf("accepted non-UTF-8 or NUL-bearing name %q", h.Dataset)
			}
		}
		var out []byte
		if h.Version == Version {
			out = AppendHello(nil, h.Dataset)
		} else {
			out = helloPrefix(h.Version)
		}
		if !bytes.Equal(out, raw[:len(out)]) {
			t.Fatalf("reencode mismatch:\n got %x\nwant %x", out, raw)
		}
	})
}

// FuzzReadWelcome throws arbitrary bytes at the v3 welcome reader: no panic,
// no over-allocation from a hostile length prefix, no hostile dataset name
// surviving into the returned id, and accepted ids re-encode byte-for-byte.
func FuzzReadWelcome(f *testing.F) {
	f.Add(AppendWelcome(nil, DatasetID{Name: "default", Dims: 3, Points: 100, Fingerprint: 1}))
	f.Add(AppendWelcome(nil, DatasetID{Name: "genomes.v2", Dims: 64, Points: 1 << 40, Fingerprint: ^uint64(0)}))
	f.Add(AppendWelcome(nil, DatasetID{Name: "missing"})) // unknown-dataset refusal
	// 20-byte welcomes of other versions, as a pre-v3 server would send.
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(helloPrefix(1), 3), 100))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(helloPrefix(2), 7), 123456))
	f.Add([]byte("PNDQ"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		id, err := ReadWelcome(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if id.Name != "" {
			if err := ValidateDatasetName(id.Name); err != nil {
				t.Fatalf("accepted hostile dataset name %q: %v", id.Name, err)
			}
		}
		if id.Dims <= 0 || id.Points < 0 {
			t.Fatalf("accepted nonsensical id %+v", id)
		}
		out := AppendWelcome(nil, id)
		if !bytes.Equal(out, raw[:len(out)]) {
			t.Fatalf("reencode mismatch:\n got %x\nwant %x", out, raw)
		}
	})
}

// FuzzConsumeRequest throws arbitrary payload bytes at the request decoder:
// it must never panic, and whatever it accepts must re-encode byte-for-byte.
func FuzzConsumeRequest(f *testing.F) {
	f.Add(AppendKNNRequest(nil, 1, 5, []float32{1, 2, 3}, 3), 3)
	f.Add(AppendKNNRequest(nil, 2, 8, []float32{1, 2, 3, 4, 5, 6}, 3), 3)
	f.Add(AppendRadiusRequest(nil, 3, 0.5, []float32{1, 2}), 2)
	f.Add(AppendShardRemoteKNNRequest(nil, 4, 0, 5, 0.25, []float32{1, 2, 3}), 3)
	f.Add(AppendShardRadiusRequest(nil, 5, 0, 0.75, []float32{1, 2}), 2)
	f.Add(AppendStatsRequest(nil, 6), 2)
	f.Add(AppendPingRequest(nil, 7), 2)
	f.Add(AppendShardKNNRequest(nil, 8, 2, 5, []float32{1, 2, 3}, 3), 3)
	f.Add(AppendShardRemoteKNNRequest(nil, 9, 1, 5, 0.25, []float32{1, 2, 3}), 3)
	f.Add(AppendShardRadiusRequest(nil, 10, 3, 0.5, []float32{1, 2}), 2)
	f.Add(AppendFetchSectionRequest(nil, 11, 0, 4096, 65536), 2)
	f.Add(AppendTraceRequest(AppendKNNRequest(nil, 12, 5, []float32{1, 2, 3}, 3), 0xDEAD), 3)
	f.Add(AppendTraceRequest(AppendRadiusRequest(nil, 13, 0.5, []float32{1, 2}), 7), 2)
	f.Add(AppendTraceRequest(AppendShardRemoteKNNRequest(nil, 14, 1, 5, 0.25, []float32{1, 2, 3}), ^uint64(0)), 3)
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 1)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, payload []byte, dims int) {
		if dims < 1 || dims > 64 {
			dims = 1 + (dims&0x3F+64)%64
		}
		var req Request
		if err := ConsumeRequest(payload, dims, &req); err != nil {
			return
		}
		// Accepted requests must satisfy the documented invariants...
		for _, c := range req.Coords {
			if c-c != 0 {
				t.Fatalf("accepted non-finite coordinate %v", c)
			}
		}
		if req.Shard < 0 || req.Shard >= MaxShards {
			t.Fatalf("accepted out-of-range shard %d", req.Shard)
		}
		switch req.Kind {
		case KindKNN, KindShardKNN:
			if req.K < 1 || req.K > MaxK || req.NQ < 1 || req.NQ*dims != len(req.Coords) {
				t.Fatalf("accepted invalid KNN request %+v (dims %d)", req, dims)
			}
		case KindRadius, KindShardRadius:
			if len(req.Coords) != dims || req.R2-req.R2 != 0 {
				t.Fatalf("accepted invalid radius request %+v (dims %d)", req, dims)
			}
		case KindShardRemoteKNN:
			if req.K < 1 || req.K > MaxK || len(req.Coords) != dims || req.R2-req.R2 != 0 {
				t.Fatalf("accepted invalid remote KNN request %+v (dims %d)", req, dims)
			}
		case KindStats, KindPing:
			if req.K != 0 || req.NQ != 0 || req.R2 != 0 || len(req.Coords) != 0 {
				t.Fatalf("accepted header-only request with a body: %+v", req)
			}
		case KindFetchSection:
			if req.FetchLen < 1 || req.FetchLen > MaxSectionChunk {
				t.Fatalf("accepted invalid fetch request %+v", req)
			}
		default:
			t.Fatalf("accepted unknown kind %d", req.Kind)
		}
		if req.Traced && !TraceableKind(req.Kind) {
			t.Fatalf("accepted trace trailer on untraceable kind %d", req.Kind)
		}
		// ...and re-encode to exactly the bytes that were decoded.
		var out []byte
		switch req.Kind {
		case KindKNN:
			out = AppendKNNRequest(nil, req.ID, req.K, req.Coords, dims)
		case KindRadius:
			out = AppendRadiusRequest(nil, req.ID, req.R2, req.Coords)
		case KindStats:
			out = AppendStatsRequest(nil, req.ID)
		case KindPing:
			out = AppendPingRequest(nil, req.ID)
		case KindShardKNN:
			out = AppendShardKNNRequest(nil, req.ID, req.Shard, req.K, req.Coords, dims)
		case KindShardRemoteKNN:
			out = AppendShardRemoteKNNRequest(nil, req.ID, req.Shard, req.K, req.R2, req.Coords)
		case KindShardRadius:
			out = AppendShardRadiusRequest(nil, req.ID, req.Shard, req.R2, req.Coords)
		case KindFetchSection:
			out = AppendFetchSectionRequest(nil, req.ID, req.Shard, req.FetchOff, req.FetchLen)
		}
		if req.Traced {
			out = AppendTraceRequest(out, req.TraceID)
		}
		if string(out) != string(payload) {
			t.Fatalf("reencode mismatch:\n got %x\nwant %x", out, payload)
		}
	})
}

// FuzzConsumeResponse throws arbitrary payload bytes at the response
// decoder: no panic, no over-allocation, offsets always consistent.
func FuzzConsumeResponse(f *testing.F) {
	f.Add(AppendNeighborsResponse(nil, 1, []int32{0, 2}, []kdtree.Neighbor{{ID: 1, Dist2: 2}, {ID: 3, Dist2: 4}}))
	f.Add(AppendErrorResponse(nil, 2, "bad"))
	f.Add(AppendStatsResponse(nil, 4, StatsBody{Queries: 100, Batches: 10, ActiveConns: 3, Failovers: 2}))
	f.Add(AppendPongResponse(nil, 5))
	f.Add(AppendSectionDataResponse(nil, 6, 1, 4096, 1<<20, 0xABCD, []byte{1, 2, 3}))
	f.Add(AppendTraceSpans(
		AppendNeighborsResponse(nil, 7, []int32{0, 1}, []kdtree.Neighbor{{ID: 1, Dist2: 2}}),
		0xBEEF, []TraceSpan{{Stage: StageEngine, Rank: 2, Start: 100, Dur: 5000}, {Stage: StageRemoteExchange, Rank: 0, Start: -30, Dur: 9000}}))
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var resp Response
		if err := ConsumeResponse(payload, &resp); err != nil {
			return
		}
		if resp.Kind == KindNeighbors {
			if len(resp.Offsets) < 1 || resp.Offsets[0] != 0 {
				t.Fatalf("offsets %v", resp.Offsets)
			}
			for i := 1; i < len(resp.Offsets); i++ {
				if resp.Offsets[i] < resp.Offsets[i-1] {
					t.Fatalf("offsets not monotone: %v", resp.Offsets)
				}
			}
			if int(resp.Offsets[len(resp.Offsets)-1]) != len(resp.Flat) {
				t.Fatalf("offsets end %d != %d neighbors", resp.Offsets[len(resp.Offsets)-1], len(resp.Flat))
			}
		}
		if len(resp.Spans) > 0 {
			if resp.Kind != KindNeighbors {
				t.Fatalf("accepted trace spans on kind %d", resp.Kind)
			}
			if len(resp.Spans) > MaxTraceSpans {
				t.Fatalf("accepted %d spans over the %d cap", len(resp.Spans), MaxTraceSpans)
			}
			for _, sp := range resp.Spans {
				if sp.Stage >= NumStages {
					t.Fatalf("accepted unknown stage %d", sp.Stage)
				}
			}
		}
		if resp.Kind == KindSectionData {
			if len(resp.Data) > MaxSectionChunk {
				t.Fatalf("accepted %d-byte section chunk over the %d cap", len(resp.Data), MaxSectionChunk)
			}
			if resp.Shard < 0 || resp.Shard >= MaxShards {
				t.Fatalf("accepted out-of-range shard %d", resp.Shard)
			}
		}
	})
}

// FuzzRequestRoundTrip builds structurally valid requests from fuzzed
// values and checks encode → decode is the identity.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint64(1), 5, 3, 2, float32(0.5), []byte{1, 2, 3, 4})
	f.Add(uint64(1<<60), 1, 1, 1, float32(-1), []byte{})
	f.Add(uint64(0), MaxK, 10, 7, float32(1e30), []byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, id uint64, k, dims, nq int, r2 float32, raw []byte) {
		if dims < 1 || dims > 16 {
			dims = 1 + (dims%16+16)%16
		}
		if nq < 1 || nq > 32 {
			nq = 1 + (nq%32+32)%32
		}
		if k < 1 || k > MaxK {
			k = 1 + (k%MaxK+MaxK)%MaxK
		}
		coords := make([]float32, nq*dims)
		for i := range coords {
			if len(raw) > 0 {
				coords[i] = float32(raw[i%len(raw)]) / 8
			}
		}
		var req Request
		b := AppendKNNRequest(nil, id, k, coords, dims)
		if err := ConsumeRequest(b, dims, &req); err != nil {
			t.Fatalf("valid KNN request rejected: %v", err)
		}
		if req.ID != id || req.K != k || req.NQ != nq || len(req.Coords) != len(coords) {
			t.Fatalf("decoded %+v, want id=%d k=%d nq=%d", req, id, k, nq)
		}
		for i := range coords {
			if req.Coords[i] != coords[i] {
				t.Fatalf("coord %d: %v != %v", i, req.Coords[i], coords[i])
			}
		}

		b = AppendRadiusRequest(nil, id, r2, coords[:dims])
		if r2-r2 != 0 {
			// Non-finite radii must be rejected at the decode boundary.
			if err := ConsumeRequest(b, dims, &req); err == nil {
				t.Fatalf("non-finite r2 %v accepted", r2)
			}
		} else {
			if err := ConsumeRequest(b, dims, &req); err != nil {
				t.Fatalf("valid radius request rejected: %v", err)
			}
			if req.ID != id || len(req.Coords) != dims {
				t.Fatalf("decoded %+v", req)
			}
			if req.R2 != r2 {
				t.Fatalf("r2 %v != %v", req.R2, r2)
			}
		}

		// Response side: random-ish offsets partitioning nq*k neighbors.
		flat := make([]kdtree.Neighbor, nq)
		for i := range flat {
			flat[i] = kdtree.Neighbor{ID: int64(i), Dist2: coords[i*dims]}
		}
		offsets := make([]int32, nq+1)
		for i := 1; i <= nq; i++ {
			offsets[i] = int32(i)
		}
		b = AppendNeighborsResponse(nil, id, offsets, flat)
		var resp Response
		if err := ConsumeResponse(b, &resp); err != nil {
			t.Fatalf("valid response rejected: %v", err)
		}
		if resp.ID != id || len(resp.Flat) != nq {
			t.Fatalf("decoded %+v", resp)
		}
		for i := range flat {
			same := resp.Flat[i] == flat[i] ||
				(resp.Flat[i].ID == flat[i].ID && resp.Flat[i].Dist2 != resp.Flat[i].Dist2 && flat[i].Dist2 != flat[i].Dist2)
			if !same {
				t.Fatalf("neighbor %d: %+v != %+v", i, resp.Flat[i], flat[i])
			}
		}
	})
}
