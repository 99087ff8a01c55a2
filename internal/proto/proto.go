// Package proto defines the client/server serving protocol spoken by
// internal/server and panda.Client: a versioned handshake followed by
// length-prefixed frames carrying KNN and radius-search requests and their
// responses. Encoding is the little-endian append/consume style of
// internal/wire; decoding uses wire.Decoder, so truncated or hostile
// payloads surface as errors with length-prefix sanity caps instead of
// panics or unbounded allocations.
//
// # Handshake
//
// Immediately after connecting the client sends
//
//	magic   [4]byte "PNDQ"
//	version uint32  3
//	dlen    uint32  dataset name length (0 = default tenant)
//	dataset dlen bytes
//
// and the server answers
//
//	magic   [4]byte "PNDQ"
//	version uint32  3
//	dims    uint32  dimensionality of the served tree
//	points  uint64  number of indexed points
//	fp      uint64  content fingerprint of the served tree
//	nlen    uint32  canonical dataset name length
//	name    nlen bytes
//
// Dims, points, fp, and name together form the dataset id of the tenant the
// connection is bound to; dims is authoritative for every later query. A
// hello the server cannot bind — an unknown dataset or any other version —
// is rejected with a welcome carrying zeroed dims/points/fp and the
// requested name, then the connection closes. Its first 20 bytes are magic,
// version 3, and zero dims/points, so a client of another version reports
// "server speaks version 3" rather than an unexplained drop.
//
// # Frames
//
// After the handshake both directions carry frames:
//
//	length  uint32          payload byte count (≤ MaxFrame)
//	payload length bytes
//
// Every payload starts with
//
//	kind  uint8
//	id    uint64   request id, echoed verbatim in the response
//
// followed by a kind-specific body:
//
//	KindKNN:            k uint32 | nq uint32 | coords nq*dims*float32
//	KindRadius:         r2 float32 | coords dims*float32
//	KindNeighbors:      nq uint32 | counts nq*uint32 | pairs Σcounts×(id int64, d2 float32)
//	KindError:          msg uint32-length-prefixed UTF-8
//	KindShardKNN:       shard uint32 | KindKNN body
//	KindShardRemoteKNN: shard uint32 | k uint32 | r2 float32 | coords dims*float32
//	KindShardRadius:    shard uint32 | r2 float32 | coords dims*float32
//	KindFetchSection:   shard uint32 | off uint64 | maxLen uint32
//	KindSectionData:    shard uint32 | off uint64 | fileSize uint64 | crc32c uint32 | data uint32-length-prefixed
//
// A query-kind request (see TraceableKind) may carry a 10-byte trace
// trailer after its body — marker 'T', a flags byte, and a trace id — and a
// KindNeighbors response answering a traced request appends marker 'T', the
// trace id, a span count, and that many stage spans. Untraced frames carry
// no trailer and are byte-identical to pre-trace encodings.
//
// Request ids are client-chosen and may be pipelined: the server answers
// every request exactly once but in any order, so a client can keep many
// requests in flight on one connection and match responses by id.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/wire"
)

func leUint32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func leUint64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func f32frombits(v uint32) float32 { return math.Float32frombits(v) }

// Magic starts both halves of the handshake.
var Magic = [4]byte{'P', 'N', 'D', 'Q'}

// Version is the protocol version this package speaks: v3, the
// multi-tenant handshake (the hello may name a dataset, the welcome
// carries the canonical dataset id).
const Version = 3

// MaxFrame caps a frame payload (64 MiB): large enough for a 1M-point
// response at k=8, small enough that a hostile length prefix cannot make
// either side allocate unboundedly.
const MaxFrame = 64 << 20

// Message kinds. The shard kinds are the inter-rank half of cluster serving
// (§III-B steps 2–4): every one names the shard it addresses, so the
// receiver answers from its copy of that shard — its own tree or a replica —
// and never re-routes, which is what lets forwarding, the remote-candidate
// exchange, and the radius fan-out terminate instead of cascading. Replica
// trees are byte-identical to the primary's, so failover stays
// bit-identical. Ping and the section kinds carry no query work: Ping is the
// peer health probe, and FetchSection/SectionData stream a shard's snapshot
// file chunk by chunk for re-replication and rank join. Kinds 5 and 6 are
// retired and never reused.
const (
	KindKNN            uint8 = 1  // request: k nearest neighbors for nq queries
	KindRadius         uint8 = 2  // request: all points within squared radius r2
	KindNeighbors      uint8 = 3  // response: neighbor lists for each query
	KindError          uint8 = 4  // response: request failed; body is the reason
	KindStats          uint8 = 7  // request: serving counters (no body)
	KindStatsResult    uint8 = 8  // response: queries served, batches dispatched, active conns
	KindPing           uint8 = 9  // request: peer liveness probe (no body)
	KindPong           uint8 = 10 // response: liveness ack (no body)
	KindShardKNN       uint8 = 11 // request: owner-pipeline KNN on an explicit shard (forwarding)
	KindShardRemoteKNN uint8 = 12 // request: ≤k candidates from an explicit shard within pruning bound r2
	KindShardRadius    uint8 = 13 // request: radius search on an explicit shard (no cluster fan-out)
	KindFetchSection   uint8 = 14 // request: one chunk of a shard's snapshot file
	KindSectionData    uint8 = 15 // response: chunk bytes + file size + chunk crc32c
)

// MaxShards caps a shard id on the wire (matches the snapshot format's rank
// cap).
const MaxShards = 1 << 16

// ManifestShard is the reserved shard id a FetchSection request uses to
// stream the cluster manifest file instead of a shard snapshot (rank joins
// need the manifest before they know any topology). Real shard ids stay
// below it: the manifest parser caps a cluster at MaxShards-1 ranks.
const ManifestShard = MaxShards - 1

// MaxSectionChunk caps one FetchSection request/response chunk (1 MiB):
// small enough to interleave with query traffic on the shared peer
// connection, large enough that a shard snapshot streams in few round trips.
const MaxSectionChunk = 1 << 20

// headerLen is kind + id.
const headerLen = 1 + 8

// OverloadedMsg is the well-known KindError body a server answers when
// admission control sheds a request: the server is healthy but its in-flight
// limit is reached, so the client should back off and retry rather than
// treat the connection as broken. Clients detect it by substring (forwarded
// cluster errors wrap it in routing context), so it must stay distinctive.
const OverloadedMsg = "overloaded, retry"

// AppendOverloadedResponse encodes the KindError response for a shed
// request.
func AppendOverloadedResponse(b []byte, id uint64) []byte {
	return AppendErrorResponse(b, id, OverloadedMsg)
}

// maxErrorLen caps an error-message body.
const maxErrorLen = 4096

// Trace stages: the per-request latency decomposition mirroring the paper's
// phase breakdown on the serving side. Every observed request reports all
// stages (unused ones as zero), so per-stage histogram counts equal the
// end-to-end count exactly.
const (
	StageDecode         uint8 = iota // frame read + request decode, before arrival
	StageQueueWait                   // arrival → dequeue by the dispatcher or router
	StageLinger                      // dequeue → batch close (draining the intake into the round)
	StageEngine                      // local tree compute (KNN/radius kernels)
	StageRemoteExchange              // cluster forwarding + remote-candidate exchange
	StageResponseWrite               // response encode + rest of the dispatch round + conn write
	NumStages
)

// StageNames maps a stage constant to its exposition label value.
var StageNames = [NumStages]string{
	"decode", "queue_wait", "linger", "engine", "remote_exchange", "response_write",
}

// StageName returns the label for a stage, or "unknown" for an
// out-of-range value.
func StageName(s uint8) string {
	if s < NumStages {
		return StageNames[s]
	}
	return "unknown"
}

// TraceSpan is one stage interval recorded by one rank. Start is the
// nanosecond offset relative to the *recording* rank's own arrival stamp for
// the request it served — offsets are comparable within a rank but not
// across ranks (no clock synchronization is assumed; StageDecode starts
// negative because decoding precedes arrival).
type TraceSpan struct {
	Stage uint8
	Rank  int32 // recording rank (-1 on a single-node server)
	Start int64 // ns since the recording rank's arrival stamp
	Dur   int64 // ns
}

// Trace trailer wire format. A traced request appends exactly
// TraceTrailerLen bytes — marker 'T', a flags byte (only the sampled bit is
// defined; any other value is malformed), and the trace id — after its
// normal body. Because every request kind otherwise rejects trailing bytes,
// the trailer is unambiguous, and untraced frames stay byte-identical to
// pre-trace encodings. A KindNeighbors response carries spans back only when
// the request carried the trailer, so clients that never trace never see
// trailer bytes.
const (
	TraceTrailerLen  = 1 + 1 + 8 // marker + flags + trace id
	traceMarker      = byte('T')
	traceFlagSampled = byte(1)
	traceSpanLen     = 1 + 4 + 8 + 8 // stage + rank + start + dur
)

// MaxTraceSpans caps the spans one response trailer may carry: enough for
// every stage of every hop of a deeply-routed query, small enough that a
// hostile trailer cannot force a meaningful allocation.
const MaxTraceSpans = 256

// TraceableKind reports whether a request kind may carry a trace trailer:
// the query kinds that flow through the dispatcher or router. Stats, ping,
// and section streaming are never traced.
func TraceableKind(kind uint8) bool {
	switch kind {
	case KindKNN, KindRadius, KindShardKNN, KindShardRemoteKNN, KindShardRadius:
		return true
	}
	return false
}

// AppendTraceRequest appends the request trace trailer to an encoded
// request of a traceable kind. Call it after the Append*Request call, inside
// the same frame.
func AppendTraceRequest(b []byte, traceID uint64) []byte {
	b = append(b, traceMarker, traceFlagSampled)
	return wire.AppendUint64(b, traceID)
}

// AppendTraceSpans appends the response trace trailer — marker, trace id,
// span count, spans — to an encoded KindNeighbors response. Spans beyond
// MaxTraceSpans are dropped (the earliest-recorded spans win).
func AppendTraceSpans(b []byte, traceID uint64, spans []TraceSpan) []byte {
	if len(spans) > MaxTraceSpans {
		spans = spans[:MaxTraceSpans]
	}
	b = append(b, traceMarker)
	b = wire.AppendUint64(b, traceID)
	b = wire.AppendUint32(b, uint32(len(spans)))
	for _, sp := range spans {
		b = append(b, sp.Stage)
		b = wire.AppendUint32(b, uint32(sp.Rank))
		b = wire.AppendUint64(b, uint64(sp.Start))
		b = wire.AppendUint64(b, uint64(sp.Dur))
	}
	return b
}

// DefaultDataset is the tenant name a server registers its first (or only)
// tree under; a hello with an empty dataset name binds to it.
const DefaultDataset = "default"

// MaxDatasetName caps a dataset name on the wire. Small enough that a
// hostile hello cannot make the server allocate meaningfully, large enough
// for any sane tenant naming scheme.
const MaxDatasetName = 64

// ValidateDatasetName checks a tenant name against the wire charset:
// 1–MaxDatasetName bytes of [A-Za-z0-9._-]. The restriction keeps names
// safe to embed verbatim in error messages, file names, and Prometheus
// label values (no quoting or escaping needed anywhere downstream).
func ValidateDatasetName(name string) error {
	if len(name) == 0 {
		return fmt.Errorf("proto: empty dataset name")
	}
	if len(name) > MaxDatasetName {
		return fmt.Errorf("proto: dataset name of %d bytes exceeds the %d-byte cap", len(name), MaxDatasetName)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("proto: dataset name %q contains byte 0x%02x outside [A-Za-z0-9._-]", name, c)
		}
	}
	return nil
}

// DatasetID is the canonical identity of one served dataset, as carried in
// the v3 welcome: the tenant name plus the shape and content fingerprint of
// the tree behind it. Two servers answer identically for a query stream if
// and only if their DatasetIDs compare equal (the fingerprint hashes the
// packed coordinates, ids, and node array — see kdtree.Raw.Fingerprint).
type DatasetID struct {
	Name        string
	Dims        int
	Points      int64
	Fingerprint uint64
}

func (id DatasetID) String() string {
	return fmt.Sprintf("%s[dims=%d points=%d fp=%016x]", id.Name, id.Dims, id.Points, id.Fingerprint)
}

// Hello is the decoded client half of the handshake.
type Hello struct {
	Version uint32
	Dataset string // requested tenant ("" = default; always "" unless v3)
}

// AppendHello appends a current-version client hello naming dataset
// ("" requests the server's default tenant).
func AppendHello(b []byte, dataset string) []byte {
	b = append(b, Magic[:]...)
	b = wire.AppendUint32(b, Version)
	b = wire.AppendUint32(b, uint32(len(dataset)))
	return append(b, dataset...)
}

// helloLen is the size of the fixed client hello prefix.
const helloLen = 8

// ReadHello consumes a client hello from r: the fixed 8-byte prefix, then —
// only when the client speaks v3 — the dataset name extension. Any other
// version returns with an empty Dataset and no extension read, for the
// caller to reject. A hostile name (over-long, or bytes outside
// the dataset charset — which covers non-UTF-8 and embedded NULs) is an
// error.
func ReadHello(r io.Reader) (Hello, error) {
	var buf [helloLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Hello{}, fmt.Errorf("proto: reading hello: %w", err)
	}
	d := wire.NewDecoder(buf[:])
	var magic [4]byte
	copy(magic[:], d.Bytes(4))
	h := Hello{Version: d.Uint32()}
	if err := d.Err(); err != nil {
		return Hello{}, err
	}
	if magic != Magic {
		return Hello{}, fmt.Errorf("proto: bad magic %q", magic[:])
	}
	if h.Version != Version {
		return h, nil
	}
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return Hello{}, fmt.Errorf("proto: reading hello dataset length: %w", err)
	}
	n := leUint32(lenb[:])
	if n == 0 {
		return h, nil
	}
	if n > MaxDatasetName {
		return Hello{}, fmt.Errorf("proto: hello dataset name of %d bytes exceeds the %d-byte cap", n, MaxDatasetName)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(r, name); err != nil {
		return Hello{}, fmt.Errorf("proto: reading hello dataset name: %w", err)
	}
	h.Dataset = string(name)
	if err := ValidateDatasetName(h.Dataset); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// AppendWelcome appends a current-version server welcome carrying the bound
// tenant's dataset id. A rejection welcome (unknown dataset) zeroes
// dims/points/fingerprint and echoes the requested name.
func AppendWelcome(b []byte, id DatasetID) []byte {
	b = append(b, Magic[:]...)
	b = wire.AppendUint32(b, Version)
	b = wire.AppendUint32(b, uint32(id.Dims))
	b = wire.AppendUint64(b, uint64(id.Points))
	b = wire.AppendUint64(b, id.Fingerprint)
	b = wire.AppendUint32(b, uint32(len(id.Name)))
	return append(b, id.Name...)
}

// ErrUnknownDataset marks a handshake the server rejected because the hello
// named a dataset it does not serve.
var ErrUnknownDataset = errors.New("proto: server does not serve the requested dataset")

// welcomeLen is the size of the fixed server welcome prefix.
const welcomeLen = 20

// ReadWelcome consumes a v3 server welcome from r and returns the dataset
// id the connection is bound to. A welcome carrying a different version
// (e.g. from a pre-v3 server, which rejects a v3 hello with its own
// version) surfaces as a version-mismatch error; a v3 rejection welcome
// (zeroed dims) surfaces as ErrUnknownDataset naming the dataset.
func ReadWelcome(r io.Reader) (DatasetID, error) {
	var buf [welcomeLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return DatasetID{}, fmt.Errorf("proto: reading welcome: %w", err)
	}
	d := wire.NewDecoder(buf[:])
	var magic [4]byte
	copy(magic[:], d.Bytes(4))
	version := d.Uint32()
	id := DatasetID{Dims: int(d.Uint32()), Points: int64(d.Uint64())}
	if err := d.Err(); err != nil {
		return DatasetID{}, err
	}
	if magic != Magic {
		return DatasetID{}, fmt.Errorf("proto: bad magic %q", magic[:])
	}
	if version != Version {
		return DatasetID{}, fmt.Errorf("proto: server speaks version %d, client speaks %d", version, Version)
	}
	var ext [12]byte // fingerprint + name length
	if _, err := io.ReadFull(r, ext[:]); err != nil {
		return DatasetID{}, fmt.Errorf("proto: reading welcome dataset id: %w", err)
	}
	id.Fingerprint = leUint64(ext[:8])
	n := leUint32(ext[8:])
	if n > MaxDatasetName {
		return DatasetID{}, fmt.Errorf("proto: welcome dataset name of %d bytes exceeds the %d-byte cap", n, MaxDatasetName)
	}
	if n > 0 {
		name := make([]byte, n)
		if _, err := io.ReadFull(r, name); err != nil {
			return DatasetID{}, fmt.Errorf("proto: reading welcome dataset name: %w", err)
		}
		id.Name = string(name)
	}
	if id.Dims <= 0 {
		if id.Points == 0 && id.Fingerprint == 0 {
			return DatasetID{}, fmt.Errorf("%w: %q", ErrUnknownDataset, id.Name)
		}
		return DatasetID{}, fmt.Errorf("proto: welcome with invalid dims %d", id.Dims)
	}
	if id.Points < 0 {
		return DatasetID{}, fmt.Errorf("proto: welcome with point count overflowing int64")
	}
	if id.Name != "" {
		if err := ValidateDatasetName(id.Name); err != nil {
			return DatasetID{}, err
		}
	}
	return id, nil
}

// BeginFrame appends a 4-byte length placeholder and returns the buffer;
// encode the payload after it, then call FinishFrame on the same buffer.
func BeginFrame(b []byte) []byte { return append(b, 0, 0, 0, 0) }

// FinishFrame patches the length prefix at offset start (where BeginFrame
// wrote its placeholder) to cover everything appended after it.
func FinishFrame(b []byte, start int) error {
	n := len(b) - start - 4
	if n < 0 || n > MaxFrame {
		return fmt.Errorf("proto: frame payload %d bytes out of range", n)
	}
	b[start] = byte(n)
	b[start+1] = byte(n >> 8)
	b[start+2] = byte(n >> 16)
	b[start+3] = byte(n >> 24)
	return nil
}

// ReadFrame reads one length-prefixed frame payload from r into buf
// (reusing its capacity) and returns the payload. A length prefix above
// MaxFrame is rejected before the payload buffer is sized. The prefix is
// read into buf's own storage, so a reused buffer makes a read
// allocation-free.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	// Compare as uint32 before converting: on 32-bit platforms a hostile
	// prefix ≥ 2³¹ would otherwise wrap negative and panic in buf[:n].
	u := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	if u > MaxFrame {
		return nil, fmt.Errorf("proto: frame payload %d exceeds MaxFrame %d", u, MaxFrame)
	}
	n := int(u)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("proto: reading frame payload: %w", err)
	}
	return buf, nil
}

// Request is a decoded client request. Coords is reused across decodes when
// the caller keeps the struct alive (ConsumeRequest appends into
// Coords[:0]), so a steady-state reader performs no per-request allocation.
type Request struct {
	ID     uint64
	Kind   uint8     // any request kind
	K      int       // KindKNN, KindShardKNN, KindShardRemoteKNN
	NQ     int       // Kind(Shard)KNN: number of query points (1 for the other kinds)
	R2     float32   // radius kinds and KindShardRemoteKNN (pruning bound)
	Coords []float32 // NQ*dims (KNN) or dims (single-point kinds) coordinates
	// Shard-addressed and section-streaming fields.
	Shard    int    // shard kinds, KindFetchSection: which shard's tree/file
	FetchOff uint64 // KindFetchSection: byte offset into the shard's snapshot file
	FetchLen int    // KindFetchSection: max chunk bytes to return (≤ MaxSectionChunk)
	// Trace trailer (TraceableKind requests only).
	TraceID uint64 // trace id carried by the trailer (0 when untraced)
	Traced  bool   // request carried a trace trailer
}

// MaxK caps the requested neighbor count per query.
const MaxK = 4096

// MaxResultNeighbors caps nq×k for one request — the most neighbors a
// single KindNeighbors response can carry within MaxFrame (12 bytes per
// pair). Without this cap one legal 64 MiB request frame (many queries ×
// large k) could drive a response arena of tens of gigabytes.
const MaxResultNeighbors = MaxFrame / 12

// ErrMalformed marks structural decode failures — truncated or trailing
// bytes, hostile length prefixes, unknown kinds — after which the byte
// stream cannot be trusted and the connection should be dropped. Semantic
// violations (k or nq out of range, coordinate count not matching the
// tree's dims) return plain errors: the stream is still framed correctly
// and the connection stays usable.
var ErrMalformed = errors.New("proto: malformed request")

// AppendKNNRequest encodes a KindKNN request for nq = len(coords)/dims
// query points.
func AppendKNNRequest(b []byte, id uint64, k int, coords []float32, dims int) []byte {
	b = append(b, KindKNN)
	b = wire.AppendUint64(b, id)
	b = wire.AppendUint32(b, uint32(k))
	b = wire.AppendUint32(b, uint32(len(coords)/dims))
	b = wire.AppendFloat32s(b, coords)
	return b
}

// KNNRequestLen is the frame payload size of the KindKNN request
// AppendKNNRequest encodes for ncoords coordinates; a client checks it
// against MaxFrame before encoding.
func KNNRequestLen(ncoords int) int { return 1 + 8 + 4 + 4 + 4 + 4*ncoords }

// AppendRadiusRequest encodes a KindRadius request for one query point.
func AppendRadiusRequest(b []byte, id uint64, r2 float32, q []float32) []byte {
	b = append(b, KindRadius)
	b = wire.AppendUint64(b, id)
	b = wire.AppendFloat32(b, r2)
	b = wire.AppendFloat32s(b, q)
	return b
}

// AppendStatsRequest encodes a KindStats request (header only, no body).
func AppendStatsRequest(b []byte, id uint64) []byte {
	b = append(b, KindStats)
	return wire.AppendUint64(b, id)
}

// StatsBody is the KindStatsResult payload: lifetime serving counters plus
// the robustness counters the replication layer maintains.
type StatsBody struct {
	Queries     uint64 // queries answered
	Batches     uint64 // dispatch batches run
	ActiveConns uint32 // currently open client connections
	// Robustness counters (zero on an un-replicated server).
	PeerFailures     uint64 // peer calls that failed at the transport level
	Failovers        uint64 // shard queries answered by a replica after its primary failed
	Redials          uint64 // peer reconnect attempts after a broken link
	ReplicationBytes uint64 // snapshot bytes served to re-replicating/joining ranks
	// Admission-control counter (zero with admission control disabled).
	Shed uint64 // requests refused with OverloadedMsg at the in-flight limit
}

// AppendStatsResponse encodes a KindStatsResult response.
func AppendStatsResponse(b []byte, id uint64, s StatsBody) []byte {
	b = append(b, KindStatsResult)
	b = wire.AppendUint64(b, id)
	b = wire.AppendUint64(b, s.Queries)
	b = wire.AppendUint64(b, s.Batches)
	b = wire.AppendUint32(b, s.ActiveConns)
	b = wire.AppendUint64(b, s.PeerFailures)
	b = wire.AppendUint64(b, s.Failovers)
	b = wire.AppendUint64(b, s.Redials)
	b = wire.AppendUint64(b, s.ReplicationBytes)
	return wire.AppendUint64(b, s.Shed)
}

// AppendPingRequest encodes a KindPing health probe (header only). Pings
// share the peer connection with query traffic, so answering one proves the
// whole serving loop — conn, reader, responder — is live, not just the port.
func AppendPingRequest(b []byte, id uint64) []byte {
	b = append(b, KindPing)
	return wire.AppendUint64(b, id)
}

// AppendPongResponse encodes a KindPong ack (header only).
func AppendPongResponse(b []byte, id uint64) []byte {
	b = append(b, KindPong)
	return wire.AppendUint64(b, id)
}

// AppendShardKNNRequest encodes a KindShardKNN request: run the full owner
// pipeline for these queries against the named shard's tree, whichever copy
// the receiver holds. Naming the shard is what makes forwarding terminate:
// the receiver never recomputes ownership, so a replica holder answering
// for a dead primary does not forward back to it.
func AppendShardKNNRequest(b []byte, id uint64, shard, k int, coords []float32, dims int) []byte {
	b = append(b, KindShardKNN)
	b = wire.AppendUint64(b, id)
	b = wire.AppendUint32(b, uint32(shard))
	b = wire.AppendUint32(b, uint32(k))
	b = wire.AppendUint32(b, uint32(len(coords)/dims))
	b = wire.AppendFloat32s(b, coords)
	return b
}

// AppendShardRemoteKNNRequest encodes a KindShardRemoteKNN request: up to k
// candidates from the named shard's tree strictly within squared radius r2
// of q (the owner's pruning bound r'², math.MaxFloat32 when the owner holds
// fewer than k candidates).
func AppendShardRemoteKNNRequest(b []byte, id uint64, shard, k int, r2 float32, q []float32) []byte {
	b = append(b, KindShardRemoteKNN)
	b = wire.AppendUint64(b, id)
	b = wire.AppendUint32(b, uint32(shard))
	b = wire.AppendUint32(b, uint32(k))
	b = wire.AppendFloat32(b, r2)
	b = wire.AppendFloat32s(b, q)
	return b
}

// AppendShardRadiusRequest encodes a KindShardRadius request: a radius
// search answered from the named shard's tree alone (no cluster fan-out).
func AppendShardRadiusRequest(b []byte, id uint64, shard int, r2 float32, q []float32) []byte {
	b = append(b, KindShardRadius)
	b = wire.AppendUint64(b, id)
	b = wire.AppendUint32(b, uint32(shard))
	b = wire.AppendFloat32(b, r2)
	b = wire.AppendFloat32s(b, q)
	return b
}

// AppendFetchSectionRequest encodes a KindFetchSection request: up to
// maxLen bytes of the named shard's snapshot file starting at off. The
// receiver answers with KindSectionData (or KindError if it doesn't hold
// the shard); the fetcher walks off forward until it has fileSize bytes.
func AppendFetchSectionRequest(b []byte, id uint64, shard int, off uint64, maxLen int) []byte {
	b = append(b, KindFetchSection)
	b = wire.AppendUint64(b, id)
	b = wire.AppendUint32(b, uint32(shard))
	b = wire.AppendUint64(b, off)
	return wire.AppendUint32(b, uint32(maxLen))
}

// AppendSectionDataResponse encodes a KindSectionData response: one chunk of
// the shard's snapshot file plus the file's total size (so the fetcher can
// size its buffer on the first chunk) and the chunk's crc32c. The per-chunk
// CRC catches transport corruption early; the assembled file is additionally
// validated by the PNDS trailer CRC before anything trusts it.
func AppendSectionDataResponse(b []byte, id uint64, shard int, off, fileSize uint64, crc uint32, data []byte) []byte {
	b = append(b, KindSectionData)
	b = wire.AppendUint64(b, id)
	b = wire.AppendUint32(b, uint32(shard))
	b = wire.AppendUint64(b, off)
	b = wire.AppendUint64(b, fileSize)
	b = wire.AppendUint32(b, crc)
	b = wire.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

// ConsumeRequest decodes a request payload for a tree of the given
// dimensionality into req, reusing req.Coords. It validates structure
// (truncation, trailing bytes, length caps — failures wrap ErrMalformed)
// and semantics (k, nq, and nq×k ranges, coords matching nq*dims, finite
// coordinates and radii — plain errors; see ErrMalformed for the
// distinction). Non-finite inputs are rejected here because a NaN
// coordinate makes every pruning comparison in the query kernels false,
// silently returning wrong or empty results instead of failing.
func ConsumeRequest(payload []byte, dims int, req *Request) error {
	d := wire.NewDecoder(payload)
	req.Kind = d.Uint8()
	req.ID = d.Uint64()
	req.Coords = req.Coords[:0]
	req.Shard, req.FetchOff, req.FetchLen = 0, 0, 0
	req.K = 0 // kinds that carry no k (radius) must not inherit one
	req.TraceID, req.Traced = 0, false
	switch req.Kind {
	case KindKNN, KindShardKNN:
		if req.Kind == KindShardKNN {
			req.Shard = int(d.Uint32())
		}
		req.K = int(d.Uint32())
		req.NQ = int(d.Uint32())
		req.Coords = d.Float32sInto(req.Coords, MaxFrame/4)
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		if req.Shard < 0 || req.Shard >= MaxShards {
			return fmt.Errorf("proto: shard %d out of range [0, %d)", req.Shard, MaxShards)
		}
		if req.K < 1 || req.K > MaxK {
			return fmt.Errorf("proto: k %d out of range [1, %d]", req.K, MaxK)
		}
		if req.NQ < 1 || req.NQ*dims != len(req.Coords) {
			return fmt.Errorf("proto: %d coords for %d queries of dim %d", len(req.Coords), req.NQ, dims)
		}
		if int64(req.NQ)*int64(req.K) > MaxResultNeighbors {
			return fmt.Errorf("proto: %d queries × k=%d exceeds the %d-neighbor response cap; split the batch",
				req.NQ, req.K, MaxResultNeighbors)
		}
	case KindRadius, KindShardRadius, KindShardRemoteKNN:
		if req.Kind != KindRadius {
			req.Shard = int(d.Uint32())
		}
		if req.Kind == KindShardRemoteKNN {
			req.K = int(d.Uint32())
		}
		req.R2 = d.Float32()
		req.Coords = d.Float32sInto(req.Coords, MaxFrame/4)
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		req.NQ = 1
		if req.Shard < 0 || req.Shard >= MaxShards {
			return fmt.Errorf("proto: shard %d out of range [0, %d)", req.Shard, MaxShards)
		}
		if req.Kind == KindShardRemoteKNN && (req.K < 1 || req.K > MaxK) {
			return fmt.Errorf("proto: k %d out of range [1, %d]", req.K, MaxK)
		}
		if len(req.Coords) != dims {
			return fmt.Errorf("proto: single-point query has %d coords, want %d", len(req.Coords), dims)
		}
		if !geom.Finite(req.R2) {
			return fmt.Errorf("proto: non-finite squared radius %v", req.R2)
		}
	case KindStats, KindPing:
		// Header-only requests; neither reaches the dispatcher, so the
		// batching fields stay zero.
		req.K, req.NQ, req.R2 = 0, 0, 0
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrMalformed, err)
		}
	case KindFetchSection:
		req.Shard = int(d.Uint32())
		req.FetchOff = d.Uint64()
		req.FetchLen = int(d.Uint32())
		req.K, req.NQ, req.R2 = 0, 0, 0
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		if req.Shard < 0 || req.Shard >= MaxShards {
			return fmt.Errorf("proto: shard %d out of range [0, %d)", req.Shard, MaxShards)
		}
		if req.FetchLen < 1 || req.FetchLen > MaxSectionChunk {
			return fmt.Errorf("proto: fetch chunk %d bytes out of range [1, %d]", req.FetchLen, MaxSectionChunk)
		}
	default:
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		return fmt.Errorf("%w: unknown request kind %d", ErrMalformed, req.Kind)
	}
	// A traceable request may carry exactly one trace trailer after its
	// body; anything else trailing is malformed as before.
	if TraceableKind(req.Kind) && d.Remaining() == TraceTrailerLen {
		marker, flags := d.Uint8(), d.Uint8()
		req.TraceID = d.Uint64()
		if marker != traceMarker || flags != traceFlagSampled {
			return fmt.Errorf("%w: bad trace trailer marker 0x%02x flags 0x%02x", ErrMalformed, marker, flags)
		}
		req.Traced = true
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after request", ErrMalformed, d.Remaining())
	}
	if !geom.AllFinite(req.Coords) {
		return fmt.Errorf("proto: non-finite query coordinate")
	}
	return nil
}

// AppendNeighborsResponse encodes a KindNeighbors response: query i's
// neighbors are flat[offsets[i]:offsets[i+1]] (the arena layout produced by
// Tree.KNNBatchFlat); len(offsets) is nq+1.
func AppendNeighborsResponse(b []byte, id uint64, offsets []int32, flat []kdtree.Neighbor) []byte {
	b = append(b, KindNeighbors)
	b = wire.AppendUint64(b, id)
	nq := len(offsets) - 1
	b = wire.AppendUint32(b, uint32(nq))
	for i := 0; i < nq; i++ {
		b = wire.AppendUint32(b, uint32(offsets[i+1]-offsets[i]))
	}
	for _, nb := range flat {
		b = wire.AppendInt64(b, nb.ID)
		b = wire.AppendFloat32(b, nb.Dist2)
	}
	return b
}

// AppendErrorResponse encodes a KindError response.
func AppendErrorResponse(b []byte, id uint64, msg string) []byte {
	if len(msg) > maxErrorLen {
		msg = msg[:maxErrorLen]
	}
	b = append(b, KindError)
	b = wire.AppendUint64(b, id)
	b = wire.AppendUint32(b, uint32(len(msg)))
	return append(b, msg...)
}

// Response is a decoded server response. Offsets and Flat are reused
// across decodes when the caller keeps the struct alive; Data aliases the
// decoded payload buffer and must be copied before the buffer is reused.
type Response struct {
	ID      uint64
	Kind    uint8 // KindNeighbors, KindError, KindStatsResult, KindPong, or KindSectionData
	Err     string
	Offsets []int32 // nq+1 arena offsets into Flat
	Flat    []kdtree.Neighbor
	// KindStatsResult payload.
	Stats StatsBody
	// KindSectionData payload.
	Shard    int
	FetchOff uint64
	FileSize uint64 // total snapshot file size, repeated on every chunk
	ChunkCRC uint32 // crc32c of Data
	Data     []byte // chunk bytes — a view into the payload, not a copy
	// Trace trailer (KindNeighbors answering a traced request only).
	TraceID uint64
	Spans   []TraceSpan // reused across decodes
}

// ConsumeResponse decodes a response payload into resp, reusing its slices.
func ConsumeResponse(payload []byte, resp *Response) error {
	d := wire.NewDecoder(payload)
	resp.Kind = d.Uint8()
	resp.ID = d.Uint64()
	resp.Err = ""
	resp.Offsets = resp.Offsets[:0]
	resp.Flat = resp.Flat[:0]
	resp.Stats = StatsBody{}
	resp.Shard, resp.FetchOff, resp.FileSize, resp.ChunkCRC, resp.Data = 0, 0, 0, 0, nil
	resp.TraceID = 0
	resp.Spans = resp.Spans[:0]
	switch resp.Kind {
	case KindNeighbors:
		nq := d.Len(4, MaxFrame/4)
		resp.Offsets = append(resp.Offsets, 0)
		total := 0
		for i := 0; i < nq; i++ {
			cnt := int(d.Uint32())
			if cnt < 0 || cnt > MaxFrame/12 {
				return fmt.Errorf("proto: neighbor count %d out of range", cnt)
			}
			total += cnt
			if total > MaxFrame/12 {
				return fmt.Errorf("proto: response claims %d neighbors, exceeding frame cap", total)
			}
			resp.Offsets = append(resp.Offsets, int32(total))
		}
		if err := d.Err(); err != nil {
			return err
		}
		raw := d.Bytes(12 * total)
		if err := d.Err(); err != nil {
			return err
		}
		for i := 0; i < total; i++ {
			id := int64(leUint64(raw[12*i:]))
			d2 := f32frombits(leUint32(raw[12*i+8:]))
			resp.Flat = append(resp.Flat, kdtree.Neighbor{ID: id, Dist2: d2})
		}
		// A neighbors response for a traced request carries a span trailer;
		// untraced responses end exactly at the last pair.
		if d.Remaining() > 0 {
			marker := d.Uint8()
			resp.TraceID = d.Uint64()
			n := int(d.Uint32())
			if err := d.Err(); err != nil {
				return fmt.Errorf("proto: truncated trace trailer: %w", err)
			}
			if marker != traceMarker {
				return fmt.Errorf("proto: bad trace trailer marker 0x%02x", marker)
			}
			if n < 0 || n > MaxTraceSpans {
				return fmt.Errorf("proto: trace trailer claims %d spans, cap is %d", n, MaxTraceSpans)
			}
			raw := d.Bytes(traceSpanLen * n)
			if err := d.Err(); err != nil {
				return fmt.Errorf("proto: truncated trace spans: %w", err)
			}
			for i := 0; i < n; i++ {
				sp := TraceSpan{
					Stage: raw[traceSpanLen*i],
					Rank:  int32(leUint32(raw[traceSpanLen*i+1:])),
					Start: int64(leUint64(raw[traceSpanLen*i+5:])),
					Dur:   int64(leUint64(raw[traceSpanLen*i+13:])),
				}
				if sp.Stage >= NumStages {
					return fmt.Errorf("proto: trace span with unknown stage %d", sp.Stage)
				}
				resp.Spans = append(resp.Spans, sp)
			}
		}
	case KindError:
		n := d.Len(1, maxErrorLen)
		msg := d.Bytes(n)
		if err := d.Err(); err != nil {
			return err
		}
		resp.Err = string(msg)
	case KindStatsResult:
		resp.Stats.Queries = d.Uint64()
		resp.Stats.Batches = d.Uint64()
		resp.Stats.ActiveConns = d.Uint32()
		resp.Stats.PeerFailures = d.Uint64()
		resp.Stats.Failovers = d.Uint64()
		resp.Stats.Redials = d.Uint64()
		resp.Stats.ReplicationBytes = d.Uint64()
		resp.Stats.Shed = d.Uint64()
		if err := d.Err(); err != nil {
			return err
		}
	case KindPong:
		// Header-only ack.
		if err := d.Err(); err != nil {
			return err
		}
	case KindSectionData:
		resp.Shard = int(d.Uint32())
		resp.FetchOff = d.Uint64()
		resp.FileSize = d.Uint64()
		resp.ChunkCRC = d.Uint32()
		n := d.Len(1, MaxSectionChunk)
		resp.Data = d.Bytes(n)
		if err := d.Err(); err != nil {
			return err
		}
		if resp.Shard < 0 || resp.Shard >= MaxShards {
			return fmt.Errorf("proto: shard %d out of range [0, %d)", resp.Shard, MaxShards)
		}
	default:
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("proto: unknown response kind %d", resp.Kind)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("proto: %d trailing bytes after response", d.Remaining())
	}
	return nil
}
