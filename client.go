package panda

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"panda/internal/geom"
	"panda/internal/proto"
)

// ErrClientClosed is returned by Client calls after Close.
var ErrClientClosed = errors.New("panda: client closed")

// ErrOverloaded marks a query the server refused at its admission limit
// (Config.MaxInFlight) instead of queueing it. The connection stays healthy
// and the dataset unchanged — the right reaction is to back off and retry,
// which retrying clients do when RetryPolicy.RetryOverloaded is set. Test
// with errors.Is or IsOverloaded.
var ErrOverloaded = errors.New("panda: server overloaded")

// IsOverloaded reports whether err means the server shed the request at its
// admission limit rather than failing it.
func IsOverloaded(err error) bool { return errors.Is(err, ErrOverloaded) }

// errNonFiniteQuery rejects NaN/±Inf query inputs client-side; the server
// enforces the same rule at its decode boundary (semantic KindError, the
// connection stays usable).
var errNonFiniteQuery = errors.New("panda: non-finite query input (NaN/±Inf coordinates or radius)")

// Client is a connection to a panda serving process (internal/server,
// started by cmd/panda-serve or server.New). It is safe for concurrent use:
// calls from many goroutines are pipelined over the single connection with
// per-request ids, so N goroutines sharing one Client keep N requests in
// flight — which is exactly what the server's dynamic micro-batcher
// coalesces into batched engine calls.
//
// Clients dialed with a Dialer whose Retry policy allows more than one
// attempt additionally reconnect and retry idempotent calls after transport
// failures; see RetryPolicy.
type Client struct {
	id      proto.DatasetID // dataset the connection bound to at handshake
	dataset string          // requested selector ("" = server default); redials reuse it
	addrs   []string        // redial targets, preference order
	retry   RetryPolicy     // defaults applied; Attempts 1: no retries, no reconnect

	conn atomic.Pointer[proto.Conn] // current connection; swapped by reconnect
	rmu  sync.Mutex                 // serializes reconnect attempts

	mu     sync.Mutex
	closed bool   // explicit Close: reconnect refuses to resurrect
	rng    uint64 // trace-id generator state (xorshift64, lazily seeded)
}

// newTraceID returns a fresh nonzero trace id.
func (c *Client) newTraceID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.rng == 0 {
			c.rng = uint64(time.Now().UnixNano()) | 1
		}
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		if c.rng != 0 {
			return c.rng
		}
	}
}

// TraceSpan is one stage of a traced query's latency decomposition, as
// recorded by a serving rank (see Client.KNNTraced). Start and Dur are
// nanoseconds; Start is relative to the recording rank's own arrival stamp,
// so spans from different ranks share a scale but not an epoch. A negative
// Start marks the decode stage, which runs before the arrival stamp.
type TraceSpan struct {
	// Stage names the pipeline stage: "decode", "queue_wait", "linger"
	// (draining the intake into the batch), "engine", "remote_exchange", or
	// "response_write".
	Stage string
	// Rank is the cluster rank that recorded the span (-1 on a single-node
	// server). A traced query routed through the cluster carries spans from
	// every rank that worked on it.
	Rank int32
	// Start is the stage's start offset in nanoseconds from the recording
	// rank's arrival stamp.
	Start int64
	// Dur is the stage's duration in nanoseconds.
	Dur int64
}

// ServerStats are the serving counters reported by a panda server (the
// server package's Stats is this type; in a cluster each rank reports its
// own).
type ServerStats struct {
	// Queries answered since the server started (batch requests count each
	// contained query; routed cluster queries count at the rank whose
	// dispatcher ran them).
	Queries int64
	// Batches is the number of coalesced dispatch rounds the server ran.
	Batches int64
	// MeanBatchSize is Queries/Batches — the achieved micro-batching
	// factor (0 before the first batch).
	MeanBatchSize float64
	// ActiveConns is the server's current open-connection count.
	ActiveConns int
	// PeerFailures counts the rank's peer calls that failed at the
	// transport level: dial errors, broken connections, malformed responses
	// and call timeouts.
	PeerFailures int64
	// Failovers counts shard queries the rank answered via a replica
	// because the shard's primary was unreachable.
	Failovers int64
	// Redials counts the rank's peer reconnect attempts.
	Redials int64
	// ReplicationBytes counts snapshot bytes the rank has streamed to
	// re-replicating or joining peers.
	ReplicationBytes int64
	// Shed counts requests the rank refused with an overload error at its
	// admission limit (server Config.MaxInFlight).
	Shed int64
}

// clientDialTimeout bounds each connection attempt (connect plus
// handshake) made by Dial and by reconnects.
const clientDialTimeout = 10 * time.Second

// DatasetID identifies the dataset a client is bound to: the server-side
// tenant name plus the shape and content fingerprint of the tree behind it
// (from the protocol welcome). Two servers answer a query stream
// identically only if their DatasetIDs compare equal; the reconnect logic
// of retrying clients enforces exactly that.
type DatasetID struct {
	// Name is the canonical tenant name on the server ("default" for a
	// single-tenant server).
	Name string
	// Dims is the dimensionality of the served tree; every query must carry
	// exactly Dims coordinates.
	Dims int
	// Points is the number of indexed points.
	Points int64
	// Fingerprint is the 64-bit content hash of the served tree (see
	// Tree.Fingerprint). Cluster servers report a cluster-wide value shared
	// by every rank.
	Fingerprint uint64
}

func (id DatasetID) String() string { return protoID(id).String() }

func protoID(id DatasetID) proto.DatasetID {
	return proto.DatasetID{Name: id.Name, Dims: id.Dims, Points: id.Points, Fingerprint: id.Fingerprint}
}

func publicID(id proto.DatasetID) DatasetID {
	return DatasetID{Name: id.Name, Dims: id.Dims, Points: id.Points, Fingerprint: id.Fingerprint}
}

// Dialer dials panda servers. The zero value binds the server's default
// dataset and does not retry; Dial is Dialer{}.Dial.
type Dialer struct {
	// Dataset selects one of the tenants a multi-dataset server registered
	// ("" means the server's default tenant). A server that does not serve
	// the dataset rejects the handshake with an error naming it.
	Dataset string
	// Retry sets dial retries and, for the returned client, reconnect and
	// retry of idempotent calls after transport failures (see RetryPolicy).
	// The zero value makes one attempt and never reconnects.
	Retry RetryPolicy
}

// Dial connects to a panda server and binds the server's default dataset;
// see Dialer.Dial.
func Dial(addrs ...string) (*Client, error) { return Dialer{}.Dial(addrs...) }

// Dial connects to the first reachable address in addrs and runs the
// protocol handshake. Pass one address for a single server, or the serving
// address of every rank of a sharded cluster (panda-serve -cluster): every
// rank answers every query — a query landing on a non-owner rank is
// forwarded to its owner inside the cluster — so any rank will do. Earlier
// addresses are preferred; pass a rotated list to spread clients across
// ranks. When no address answers, the whole list is retried with jittered
// exponential backoff, up to d.Retry.Attempts times. Reconnects of a
// retrying client may land on any listed address that serves the exact
// dataset the client first bound to.
func (d Dialer) Dial(addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("panda: Dial needs at least one address")
	}
	retry := d.Retry.withDefaults()
	var err error
	for attempt := 0; attempt < retry.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retry.backoff(attempt - 1))
		}
		var conn *proto.Conn
		if conn, err = dialAny(addrs, d.Dataset, proto.DatasetID{}); err == nil {
			c := &Client{id: conn.ID, dataset: d.Dataset, addrs: addrs, retry: retry}
			c.conn.Store(conn)
			return c, nil
		}
	}
	return nil, fmt.Errorf("panda: dial failed after %d attempt(s): %w", retry.Attempts, err)
}

// dialAny tries each address in order and returns the first connection
// that completes the handshake. A non-zero want (a reconnect) also requires
// the welcome to report exactly that dataset id; addresses that answer with
// another are closed and skipped, keeping later addresses reachable.
func dialAny(addrs []string, dataset string, want proto.DatasetID) (*proto.Conn, error) {
	var errs []error
	for _, addr := range addrs {
		conn, err := proto.Dial(addr, dataset, clientDialTimeout)
		if err == nil {
			if want == (proto.DatasetID{}) || conn.ID == want {
				return conn, nil
			}
			err = fmt.Errorf("serves a different dataset (%v, want %v)", conn.ID, want)
			conn.Fail(err)
		}
		errs = append(errs, fmt.Errorf("%s: %w", addr, err))
	}
	return nil, errors.Join(errs...)
}

// Dims returns the dimensionality of the served tree; every query must
// carry exactly Dims coordinates.
func (c *Client) Dims() int { return c.id.Dims }

// Len returns the number of points indexed by the served tree.
func (c *Client) Len() int64 { return c.id.Points }

// DatasetID returns the canonical identity of the dataset this client is
// bound to, as reported by the server's welcome. Reconnects only ever
// accept a server reporting this exact id.
func (c *Client) DatasetID() DatasetID { return publicID(c.id) }

// Close tears down the connection. In-flight calls return ErrClientClosed,
// and a retrying client stops reconnecting.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn.Load()
	c.mu.Unlock()
	conn.Fail(ErrClientClosed)
	return nil
}

// call issues one request on the current connection and waits for its
// response (no retries; see callRetry). A KindError answer becomes an
// error here: ErrOverloaded for an admission refusal, a plain server error
// otherwise.
func (c *Client) call(encode func(b []byte, id uint64) []byte) (proto.Result, error) {
	res := c.conn.Load().Call(0, encode)
	if res.Err != nil || res.Kind != proto.KindError {
		return res, res.Err
	}
	// Overload refusals keep their sentinel across cluster forwarding: a
	// non-owner rank wraps the owner's message ("forward shard N...: peer:
	// overloaded, retry"), so match by substring, not equality.
	if strings.Contains(res.ErrMsg, proto.OverloadedMsg) {
		return res, fmt.Errorf("%w: server: %s", ErrOverloaded, res.ErrMsg)
	}
	return res, fmt.Errorf("panda: server: %s", res.ErrMsg)
}

// KNN returns the k nearest neighbors of q, exactly as Tree.KNN would.
func (c *Client) KNN(q []float32, k int) ([]Neighbor, error) {
	if len(q) != c.id.Dims {
		return nil, fmt.Errorf("panda: query has %d coords, server tree has %d dims", len(q), c.id.Dims)
	}
	if !geom.AllFinite(q) {
		return nil, errNonFiniteQuery
	}
	if k < 1 || k > proto.MaxK {
		return nil, fmt.Errorf("panda: k %d out of range [1, %d]", k, proto.MaxK)
	}
	res, err := c.callRetry(func(b []byte, id uint64) []byte {
		return proto.AppendKNNRequest(b, id, k, q, c.id.Dims)
	})
	if err != nil {
		return nil, err
	}
	return res.Flat, nil
}

// KNNTraced is KNN with per-stage latency tracing: the server times each
// pipeline stage the query passes through (queue wait, batch assembly,
// engine search, cluster remote exchange, response write) and returns the
// spans alongside the neighbors. A query routed through a cluster carries
// spans from every rank that worked on it, tagged with the recording rank.
// The same trace is also captured in the server's /debug/traces ring.
// Tracing adds a 10-byte trailer to the request and the span list to the
// response; the result is otherwise identical to KNN.
func (c *Client) KNNTraced(q []float32, k int) ([]Neighbor, []TraceSpan, error) {
	if len(q) != c.id.Dims {
		return nil, nil, fmt.Errorf("panda: query has %d coords, server tree has %d dims", len(q), c.id.Dims)
	}
	if !geom.AllFinite(q) {
		return nil, nil, errNonFiniteQuery
	}
	if k < 1 || k > proto.MaxK {
		return nil, nil, fmt.Errorf("panda: k %d out of range [1, %d]", k, proto.MaxK)
	}
	traceID := c.newTraceID()
	res, err := c.callRetry(func(b []byte, id uint64) []byte {
		return proto.AppendTraceRequest(proto.AppendKNNRequest(b, id, k, q, c.id.Dims), traceID)
	})
	if err != nil {
		return nil, nil, err
	}
	spans := make([]TraceSpan, len(res.Spans))
	for i, sp := range res.Spans {
		spans[i] = TraceSpan{Stage: proto.StageName(sp.Stage), Rank: sp.Rank, Start: sp.Start, Dur: sp.Dur}
	}
	return res.Flat, spans, nil
}

// KNNBatch answers len(queries)/Dims row-major queries in one request;
// result i holds the neighbors of query i (all slices view one flat backing
// array, as in Tree.KNNBatch).
func (c *Client) KNNBatch(queries []float32, k int) ([][]Neighbor, error) {
	if c.id.Dims == 0 || len(queries) == 0 || len(queries)%c.id.Dims != 0 {
		return nil, fmt.Errorf("panda: query buffer of %d floats is not a positive multiple of dims %d", len(queries), c.id.Dims)
	}
	if !geom.AllFinite(queries) {
		return nil, errNonFiniteQuery
	}
	if k < 1 || k > proto.MaxK {
		return nil, fmt.Errorf("panda: k %d out of range [1, %d]", k, proto.MaxK)
	}
	nq := len(queries) / c.id.Dims
	if int64(nq)*int64(k) > proto.MaxResultNeighbors {
		return nil, fmt.Errorf("panda: %d queries × k=%d exceeds the %d-neighbor response cap; split the batch",
			nq, k, proto.MaxResultNeighbors)
	}
	if n := proto.KNNRequestLen(len(queries)); n > proto.MaxFrame {
		return nil, fmt.Errorf("panda: %d queries of %d dims make a %d-byte request, exceeding the %d-byte frame cap; split the batch",
			nq, c.id.Dims, n, proto.MaxFrame)
	}
	res, err := c.callRetry(func(b []byte, id uint64) []byte {
		return proto.AppendKNNRequest(b, id, k, queries, c.id.Dims)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(res.Offsets)-1)
	for i := range out {
		out[i] = res.Flat[res.Offsets[i]:res.Offsets[i+1]:res.Offsets[i+1]]
	}
	return out, nil
}

// Stats returns the server's serving counters (queries answered, dispatch
// batches, achieved batching factor, open connections, robustness
// counters). Against a cluster rank, the counters are that rank's own.
func (c *Client) Stats() (ServerStats, error) {
	res, err := c.callRetry(func(b []byte, id uint64) []byte {
		return proto.AppendStatsRequest(b, id)
	})
	if err != nil {
		return ServerStats{}, err
	}
	if res.Kind != proto.KindStatsResult {
		return ServerStats{}, fmt.Errorf("panda: server answered a stats request with a non-stats response")
	}
	st := ServerStats{
		Queries:          int64(res.Stats.Queries),
		Batches:          int64(res.Stats.Batches),
		ActiveConns:      int(res.Stats.ActiveConns),
		PeerFailures:     int64(res.Stats.PeerFailures),
		Failovers:        int64(res.Stats.Failovers),
		Redials:          int64(res.Stats.Redials),
		ReplicationBytes: int64(res.Stats.ReplicationBytes),
		Shed:             int64(res.Stats.Shed),
	}
	if st.Batches > 0 {
		st.MeanBatchSize = float64(st.Queries) / float64(st.Batches)
	}
	return st, nil
}

// RadiusSearch returns every indexed point with squared distance < r2 from
// q, exactly as Tree.RadiusSearch would.
func (c *Client) RadiusSearch(q []float32, r2 float32) ([]Neighbor, error) {
	if len(q) != c.id.Dims {
		return nil, fmt.Errorf("panda: query has %d coords, server tree has %d dims", len(q), c.id.Dims)
	}
	if !geom.AllFinite(q) || !geom.Finite(r2) {
		return nil, errNonFiniteQuery
	}
	res, err := c.callRetry(func(b []byte, id uint64) []byte {
		return proto.AppendRadiusRequest(b, id, r2, q)
	})
	if err != nil {
		return nil, err
	}
	return res.Flat, nil
}
