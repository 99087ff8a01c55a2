package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"strings"
	"testing"

	"panda/internal/kdtree"
)

func TestHandshakeRoundTrip(t *testing.T) {
	hello := AppendHello(nil, "")
	h, err := ReadHello(bytes.NewReader(hello))
	if err != nil || h.Version != Version || h.Dataset != "" {
		t.Fatalf("ReadHello = %+v, %v", h, err)
	}
	hello = AppendHello(nil, "genomes.v2")
	h, err = ReadHello(bytes.NewReader(hello))
	if err != nil || h.Version != Version || h.Dataset != "genomes.v2" {
		t.Fatalf("ReadHello = %+v, %v", h, err)
	}

	id := DatasetID{Name: "genomes.v2", Dims: 7, Points: 123456, Fingerprint: 0xfeedface}
	welcome := AppendWelcome(nil, id)
	got, err := ReadWelcome(bytes.NewReader(welcome))
	if err != nil || got != id {
		t.Fatalf("ReadWelcome = %+v, %v, want %+v", got, err, id)
	}

	if _, err := ReadHello(strings.NewReader("XXXXxxxx")); err == nil {
		t.Error("bad magic accepted")
	}
	bad := AppendWelcome(nil, id)
	bad[4] = 99 // version
	if _, err := ReadWelcome(bytes.NewReader(bad)); err == nil {
		t.Error("version mismatch accepted")
	}
}

// helloPrefix is the fixed 8-byte hello prefix (magic + version) that every
// protocol version starts with.
func helloPrefix(version uint32) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), Magic[:]...), version)
}

func TestHandshakeNonV3HelloPrefix(t *testing.T) {
	// A non-v3 hello is read as its 8-byte prefix alone: no dataset name,
	// and no byte after the prefix consumed (the server rejects the version
	// without waiting on an extension the client never sends).
	for _, v := range []uint32{1, 2, Version + 1} {
		r := bytes.NewReader(append(helloPrefix(v), 0xFF, 0xFF, 0xFF, 0xFF))
		h, err := ReadHello(r)
		if err != nil || h.Version != v || h.Dataset != "" {
			t.Fatalf("ReadHello(v%d) = %+v, %v", v, h, err)
		}
		if r.Len() != 4 {
			t.Fatalf("v%d hello consumed %d bytes past its 8-byte prefix", v, 4-r.Len())
		}
	}
}

func TestHandshakeUnknownDataset(t *testing.T) {
	// A server that does not serve the requested dataset answers with a
	// zeroed id echoing the requested name; the client surfaces
	// ErrUnknownDataset naming it.
	w := AppendWelcome(nil, DatasetID{Name: "missing"})
	_, err := ReadWelcome(bytes.NewReader(w))
	if !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("err = %v, want ErrUnknownDataset", err)
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Fatalf("error %v does not name the requested dataset", err)
	}
}

func TestValidateDatasetName(t *testing.T) {
	for _, ok := range []string{"default", "a", "genomes.v2", "A-B_c.9", strings.Repeat("x", MaxDatasetName)} {
		if err := ValidateDatasetName(ok); err != nil {
			t.Errorf("ValidateDatasetName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{
		"", strings.Repeat("x", MaxDatasetName+1),
		"with space", "slash/y", "nul\x00byte", "caf\xc3\xa9", "\xff\xfe",
		`quote"brk`, "new\nline",
	} {
		if err := ValidateDatasetName(bad); err == nil {
			t.Errorf("ValidateDatasetName(%q) accepted a hostile name", bad)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	coords := []float32{1, 2, 3, 4, 5, 6}
	b := AppendKNNRequest(nil, 99, 5, coords, 3)
	var req Request
	if err := ConsumeRequest(b, 3, &req); err != nil {
		t.Fatal(err)
	}
	if req.ID != 99 || req.Kind != KindKNN || req.K != 5 || req.NQ != 2 {
		t.Fatalf("decoded %+v", req)
	}
	for i, v := range coords {
		if req.Coords[i] != v {
			t.Fatalf("coord %d: %v != %v", i, req.Coords[i], v)
		}
	}

	b = AppendRadiusRequest(nil, 7, 0.25, coords[:3])
	if err := ConsumeRequest(b, 3, &req); err != nil {
		t.Fatal(err)
	}
	if req.ID != 7 || req.Kind != KindRadius || req.R2 != 0.25 || len(req.Coords) != 3 {
		t.Fatalf("decoded %+v", req)
	}

	// MaxFloat32 is the engine's "unbounded" pruning sentinel — it must be
	// accepted (it is finite), unlike ±Inf/NaN.
	b = AppendShardRemoteKNNRequest(nil, 9, 0, 6, math.MaxFloat32, coords[:3])
	if err := ConsumeRequest(b, 3, &req); err != nil {
		t.Fatal(err)
	}
	if req.ID != 9 || req.Kind != KindShardRemoteKNN || req.K != 6 || req.R2 != math.MaxFloat32 {
		t.Fatalf("decoded %+v", req)
	}

	// Shard-addressed kinds carry the explicit shard through the decode.
	b = AppendShardKNNRequest(nil, 11, 3, 5, coords, 3)
	if err := ConsumeRequest(b, 3, &req); err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindShardKNN || req.Shard != 3 || req.K != 5 || req.NQ != 2 {
		t.Fatalf("decoded %+v", req)
	}

	b = AppendShardRemoteKNNRequest(nil, 12, 2, 6, 0.5, coords[:3])
	if err := ConsumeRequest(b, 3, &req); err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindShardRemoteKNN || req.Shard != 2 || req.K != 6 || req.R2 != 0.5 {
		t.Fatalf("decoded %+v", req)
	}

	b = AppendShardRadiusRequest(nil, 13, 1, 0.75, coords[:3])
	if err := ConsumeRequest(b, 3, &req); err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindShardRadius || req.Shard != 1 || req.R2 != 0.75 {
		t.Fatalf("decoded %+v", req)
	}
	// Decoding a shard kind must not leak the shard into a later plain kind.
	b = AppendRadiusRequest(nil, 14, 0.25, coords[:3])
	if err := ConsumeRequest(b, 3, &req); err != nil {
		t.Fatal(err)
	}
	if req.Shard != 0 {
		t.Fatalf("stale shard %d after plain radius decode", req.Shard)
	}

	b = AppendFetchSectionRequest(nil, 15, 2, 4096, 65536)
	if err := ConsumeRequest(b, 3, &req); err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindFetchSection || req.Shard != 2 || req.FetchOff != 4096 || req.FetchLen != 65536 {
		t.Fatalf("decoded %+v", req)
	}

	b = AppendPingRequest(nil, 16)
	if err := ConsumeRequest(b, 3, &req); err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindPing || req.ID != 16 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestRequestValidation(t *testing.T) {
	coords := []float32{1, 2, 3}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	var req Request
	cases := map[string][]byte{
		"wrong dims":    AppendKNNRequest(nil, 1, 5, coords, 3), // consumed with dims=4 below
		"zero k":        AppendKNNRequest(nil, 1, 0, coords, 3),
		"huge k":        AppendKNNRequest(nil, 1, MaxK+1, coords, 3),
		"truncated":     AppendKNNRequest(nil, 1, 5, coords, 3)[:8],
		"trailing":      append(AppendKNNRequest(nil, 1, 5, coords, 3), 0xAA),
		"unknown kind":  {42, 0, 0, 0, 0, 0, 0, 0, 0},
		"radius short":  AppendRadiusRequest(nil, 1, 0.5, coords[:2]),
		"empty payload": {},
		"oversize nq*k": AppendKNNRequest(nil, 1, MaxK,
			make([]float32, 3*(MaxResultNeighbors/MaxK+1)), 3),
		"NaN coord":               AppendKNNRequest(nil, 1, 5, []float32{1, nan, 3}, 3),
		"+Inf coord":              AppendKNNRequest(nil, 1, 5, []float32{1, inf, 3}, 3),
		"-Inf coord":              AppendKNNRequest(nil, 1, 5, []float32{1, -inf, 3}, 3),
		"radius NaN coord":        AppendRadiusRequest(nil, 1, 0.5, []float32{nan, 2, 3}),
		"radius NaN r2":           AppendRadiusRequest(nil, 1, nan, coords),
		"radius Inf r2":           AppendRadiusRequest(nil, 1, inf, coords),
		"remote KNN NaN r2":       AppendShardRemoteKNNRequest(nil, 1, 0, 5, nan, coords),
		"remote KNN zero k":       AppendShardRemoteKNNRequest(nil, 1, 0, 0, 0.5, coords),
		"remote KNN huge k":       AppendShardRemoteKNNRequest(nil, 1, 0, MaxK+1, 0.5, coords),
		"remote radius Inf":       AppendShardRadiusRequest(nil, 1, 0, inf, coords),
		"remote radius dims":      AppendShardRadiusRequest(nil, 1, 0, 0.5, coords[:2]),
		"shard KNN huge shard":    AppendShardKNNRequest(nil, 1, MaxShards, 5, coords, 3),
		"shard KNN zero k":        AppendShardKNNRequest(nil, 1, 0, 0, coords, 3),
		"shard radius huge shard": AppendShardRadiusRequest(nil, 1, MaxShards+7, 0.5, coords),
		"shard radius NaN r2":     AppendShardRadiusRequest(nil, 1, 0, nan, coords),
		"shard remote zero k":     AppendShardRemoteKNNRequest(nil, 1, 0, 0, 0.5, coords),
		"fetch zero len":          AppendFetchSectionRequest(nil, 1, 0, 0, 0),
		"fetch oversize len":      AppendFetchSectionRequest(nil, 1, 0, 0, MaxSectionChunk+1),
		"fetch huge shard":        AppendFetchSectionRequest(nil, 1, MaxShards, 0, 4096),
		"ping with body":          append(AppendPingRequest(nil, 1), 0x01),
	}
	for name, payload := range cases {
		dims := 3
		if name == "wrong dims" {
			dims = 4
		}
		err := ConsumeRequest(payload, dims, &req)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		// Non-finite inputs and range violations are semantic: the stream
		// is still correctly framed, so the connection must stay usable
		// (not ErrMalformed).
		switch name {
		case "truncated", "trailing", "unknown kind", "empty payload", "ping with body":
		default:
			if errors.Is(err, ErrMalformed) {
				t.Errorf("%s: classified as malformed (would drop the connection): %v", name, err)
			}
		}
	}
	// Retired kinds 5 and 6 (the pre-shard-addressed remote kinds) are
	// unknown like any never-assigned number, whatever body follows.
	for _, kind := range []uint8{5, 6, 42} {
		payload := AppendShardRemoteKNNRequest(nil, 1, 0, 5, 0.5, coords)
		payload[0] = kind
		err := ConsumeRequest(payload, 3, &req)
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "unknown request kind") {
			t.Errorf("kind %d: err = %v, want ErrMalformed unknown request kind", kind, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	flat := []kdtree.Neighbor{{ID: 1, Dist2: 0.5}, {ID: 2, Dist2: 1.5}, {ID: 3, Dist2: 2.5}}
	offsets := []int32{0, 2, 2, 3}
	b := AppendNeighborsResponse(nil, 11, offsets, flat)
	var resp Response
	if err := ConsumeResponse(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 11 || resp.Kind != KindNeighbors {
		t.Fatalf("decoded %+v", resp)
	}
	if len(resp.Offsets) != len(offsets) {
		t.Fatalf("offsets %v", resp.Offsets)
	}
	for i := range offsets {
		if resp.Offsets[i] != offsets[i] {
			t.Fatalf("offsets %v != %v", resp.Offsets, offsets)
		}
	}
	for i := range flat {
		if resp.Flat[i] != flat[i] {
			t.Fatalf("flat %v != %v", resp.Flat, flat)
		}
	}

	// Absolute arena offsets must decode to the same per-query counts.
	b = AppendNeighborsResponse(nil, 12, []int32{100, 102, 103}, flat)
	if err := ConsumeResponse(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Offsets[0] != 0 || resp.Offsets[1] != 2 || resp.Offsets[2] != 3 {
		t.Fatalf("absolute offsets decoded to %v", resp.Offsets)
	}

	b = AppendErrorResponse(nil, 13, "boom")
	if err := ConsumeResponse(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindError || resp.ID != 13 || resp.Err != "boom" {
		t.Fatalf("decoded %+v", resp)
	}

	stats := StatsBody{
		Queries: 100, Batches: 10, ActiveConns: 3,
		PeerFailures: 4, Failovers: 2, Redials: 7, ReplicationBytes: 1 << 20,
		Shed: 9,
	}
	b = AppendStatsResponse(nil, 14, stats)
	if err := ConsumeResponse(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindStatsResult || resp.Stats != stats {
		t.Fatalf("decoded %+v, want stats %+v", resp, stats)
	}

	b = AppendPongResponse(nil, 15)
	if err := ConsumeResponse(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindPong || resp.ID != 15 {
		t.Fatalf("decoded %+v", resp)
	}
	if resp.Stats != (StatsBody{}) {
		t.Fatalf("stale stats after pong decode: %+v", resp.Stats)
	}

	chunk := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	b = AppendSectionDataResponse(nil, 16, 3, 8192, 1<<20, 0x1234, chunk)
	if err := ConsumeResponse(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindSectionData || resp.Shard != 3 || resp.FetchOff != 8192 ||
		resp.FileSize != 1<<20 || resp.ChunkCRC != 0x1234 || !bytes.Equal(resp.Data, chunk) {
		t.Fatalf("decoded %+v", resp)
	}

	// A section-data chunk above the cap must be rejected before allocation.
	big := AppendSectionDataResponse(nil, 17, 0, 0, 8, 0, nil)
	big[len(big)-4] = 0xFF
	big[len(big)-3] = 0xFF
	big[len(big)-2] = 0xFF
	big[len(big)-1] = 0x7F
	if err := ConsumeResponse(big, &resp); err == nil {
		t.Fatal("oversize section chunk accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	b := BeginFrame(nil)
	b = AppendErrorResponse(b, 5, "x")
	if err := FinishFrame(b, 0); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ConsumeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || resp.Err != "x" {
		t.Fatalf("decoded %+v", resp)
	}

	// Oversized length prefix is rejected before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge), nil); err == nil {
		t.Error("oversized frame accepted")
	}
}

// TestReadFrameZeroAllocs: with a reused buffer, reading a frame allocates
// nothing — the length prefix lands in the buffer, not on the heap.
func TestReadFrameZeroAllocs(t *testing.T) {
	var stream []byte
	for i := 0; i < 4; i++ {
		start := len(stream)
		stream = BeginFrame(stream)
		stream = AppendErrorResponse(stream, uint64(i), "frame payload")
		if err := FinishFrame(stream, start); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		for i := 0; i < 4; i++ {
			payload, err := ReadFrame(r, buf)
			if err != nil {
				t.Fatal(err)
			}
			buf = payload
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame with a reused buffer: %v allocations per 4 frames, want 0", allocs)
	}
	var resp Response
	if err := ConsumeResponse(buf, &resp); err != nil || resp.ID != 3 || resp.Err != "frame payload" {
		t.Fatalf("last frame decoded %+v, %v", resp, err)
	}
}

// TestFrameOverTCP sanity-checks framing across a real socket boundary,
// including partial reads.
func TestFrameOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		payload, err := ReadFrame(conn, nil)
		if err != nil {
			done <- err
			return
		}
		var req Request
		if err := ConsumeRequest(payload, 2, &req); err != nil {
			done <- err
			return
		}
		b := BeginFrame(nil)
		b = AppendNeighborsResponse(b, req.ID, []int32{0, 1}, []kdtree.Neighbor{{ID: 9, Dist2: 0.125}})
		if err := FinishFrame(b, 0); err != nil {
			done <- err
			return
		}
		_, err = conn.Write(b)
		done <- err
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	b := BeginFrame(nil)
	b = AppendKNNRequest(b, 77, 1, []float32{0.5, 0.5}, 2)
	if err := FinishFrame(b, 0); err != nil {
		t.Fatal(err)
	}
	// Dribble the frame to exercise partial reads.
	for i := 0; i < len(b); i += 3 {
		end := i + 3
		if end > len(b) {
			end = len(b)
		}
		if _, err := nc.Write(b[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := ReadFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ConsumeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 77 || len(resp.Flat) != 1 || resp.Flat[0].ID != 9 {
		t.Fatalf("decoded %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestKNNRequestLen ties the client's up-front frame-cap check to the
// encoder it guards: KNNRequestLen must equal the encoded payload size.
func TestKNNRequestLen(t *testing.T) {
	for _, dims := range []int{1, 3, 10} {
		for _, nq := range []int{0, 1, 7, 1000} {
			coords := make([]float32, nq*dims)
			if got, want := KNNRequestLen(len(coords)), len(AppendKNNRequest(nil, 1, 5, coords, dims)); got != want {
				t.Errorf("dims %d nq %d: KNNRequestLen %d, encoded %d bytes", dims, nq, got, want)
			}
		}
	}
}
