package panda

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"panda/internal/geom"
	"panda/internal/proto"
)

// ErrClientClosed is returned by Client calls after Close.
var ErrClientClosed = errors.New("panda: client closed")

// errConnLost marks transport-level failures — broken connections, failed
// sends, malformed frames. Calls failing with it are safe to retry on a
// fresh connection (KNN/radius/stats are pure reads); semantic server
// errors (KindError responses) never wrap it.
var errConnLost = errors.New("panda: connection lost")

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
// Clients dialed with DialRetry/DialClusterRetry additionally reconnect and
// retry idempotent calls after transport failures; see RetryPolicy.
type Client struct {
	id      proto.DatasetID // dataset the connection bound to at handshake
	dataset string          // requested selector ("" = server default); redials reuse it
	addrs   []string        // redial targets, preference order
	retry   RetryPolicy     // zero value: no retries, no reconnect

	wmu  sync.Mutex // serializes request writes
	wbuf []byte

	rmu sync.Mutex // serializes reconnect attempts

	mu      sync.Mutex
	nc      net.Conn // current connection; swapped by reconnect
	closed  bool     // explicit Close: reconnect refuses to resurrect
	nextID  uint64   // never reset, so ids stay unique across reconnects
	rng     uint64   // trace-id generator state (xorshift64, lazily seeded)
	pending map[uint64]chan clientResult
	err     error // sticky per connection; cleared by a successful reconnect
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

// clientResult is one decoded response handed to a waiter.
type clientResult struct {
	flat    []Neighbor
	offsets []int32
	stats   *ServerStats
	spans   []TraceSpan
	err     error
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

// ServerStats are the serving counters reported by a panda server (see
// internal/server.Stats; in a cluster each rank reports its own).
type ServerStats struct {
	// Queries answered since the server started (batch requests count each
	// contained query).
	Queries int64
	// Batches is the number of coalesced dispatch rounds the server ran.
	Batches int64
	// MeanBatchSize is Queries/Batches — the achieved micro-batching
	// factor (0 before the first batch).
	MeanBatchSize float64
	// ActiveConns is the server's current open-connection count.
	ActiveConns int
	// PeerFailures counts the rank's failed peer calls (transport level).
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

// DialTimeout bounds connection establishment and the handshake in Dial.
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

// dialConn establishes one connection and runs the handshake, requesting
// dataset ("" = the server's default tenant).
func dialConn(addr, dataset string) (net.Conn, proto.DatasetID, error) {
	nc, err := net.DialTimeout("tcp", addr, clientDialTimeout)
	if err != nil {
		return nil, proto.DatasetID{}, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	nc.SetDeadline(time.Now().Add(clientDialTimeout))
	if _, err := nc.Write(proto.AppendHello(nil, dataset)); err != nil {
		nc.Close()
		return nil, proto.DatasetID{}, fmt.Errorf("panda: handshake: %w", err)
	}
	id, err := proto.ReadWelcome(nc)
	if err != nil {
		nc.Close()
		return nil, proto.DatasetID{}, fmt.Errorf("panda: handshake: %w", err)
	}
	nc.SetDeadline(time.Time{})
	return nc, id, nil
}

// dialAny tries each address in order and returns the first that answers
// the handshake.
func dialAny(addrs []string, dataset string) (net.Conn, proto.DatasetID, error) {
	var errs []error
	for _, addr := range addrs {
		nc, id, err := dialConn(addr, dataset)
		if err == nil {
			return nc, id, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", addr, err))
	}
	return nil, proto.DatasetID{}, errors.Join(errs...)
}

// newClient wraps an established connection.
func newClient(nc net.Conn, id proto.DatasetID, dataset string, addrs []string, retry RetryPolicy) *Client {
	c := &Client{
		nc:      nc,
		id:      id,
		dataset: dataset,
		addrs:   addrs,
		retry:   retry,
		pending: map[uint64]chan clientResult{},
	}
	go c.readLoop(nc)
	return c
}

// Dial connects to a panda server at addr and performs the protocol
// handshake, binding to the server's default dataset. The returned client
// does not retry; see DialRetry. Multi-tenant servers: see DialDataset.
func Dial(addr string) (*Client, error) { return DialDataset(addr, "") }

// DialDataset connects to a panda server and binds to the named dataset
// (one of the tenants the server registered; "" means the server's default
// tenant). A server that does not serve the dataset rejects the handshake
// with an error naming it.
func DialDataset(addr, dataset string) (*Client, error) {
	nc, id, err := dialConn(addr, dataset)
	if err != nil {
		return nil, err
	}
	return newClient(nc, id, dataset, []string{addr}, RetryPolicy{}), nil
}

// DialCluster connects to a sharded panda cluster (panda-serve -cluster):
// addrs lists the serving address of each rank, in any order. Every rank
// answers every query — a query landing on a non-owner rank is forwarded to
// its owner inside the cluster — so DialCluster simply connects to the
// first reachable rank and returns a normal Client. Ranks earlier in addrs
// are preferred; pass a rotated slice to spread clients across ranks.
func DialCluster(addrs []string) (*Client, error) {
	return DialClusterDataset(addrs, "")
}

// DialClusterDataset is DialCluster with a dataset selector (see
// DialDataset).
func DialClusterDataset(addrs []string, dataset string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("panda: DialCluster needs at least one address")
	}
	nc, id, err := dialAny(addrs, dataset)
	if err != nil {
		return nil, fmt.Errorf("panda: no cluster rank reachable: %w", err)
	}
	return newClient(nc, id, dataset, addrs, RetryPolicy{}), nil
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
	nc := c.nc
	if c.err == nil {
		c.err = ErrClientClosed
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- clientResult{err: ErrClientClosed}
	}
	c.mu.Unlock()
	return nc.Close()
}

// connFailed marks the connection nc dead and releases every waiter. It is
// a no-op if nc is no longer the client's current connection (a stale
// reader or writer reporting a failure the reconnect already replaced).
func (c *Client) connFailed(nc net.Conn, err error) {
	c.mu.Lock()
	if c.nc != nc {
		c.mu.Unlock()
		return
	}
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- clientResult{err: c.err}
	}
	c.mu.Unlock()
	nc.Close()
}

// readLoop is the single response reader for one connection: it decodes
// frames and routes them to waiters by request id. A reconnect starts a
// fresh readLoop for the new connection; this one exits on its conn's
// first error.
func (c *Client) readLoop(nc net.Conn) {
	var buf []byte
	for {
		payload, err := proto.ReadFrame(nc, buf)
		if err != nil {
			c.connFailed(nc, fmt.Errorf("%w: %w", errConnLost, err))
			return
		}
		buf = payload
		var resp proto.Response
		if err := proto.ConsumeResponse(payload, &resp); err != nil {
			c.connFailed(nc, fmt.Errorf("%w: malformed response: %w", errConnLost, err))
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch == nil {
			continue // response for an abandoned id; drop
		}
		res := clientResult{}
		switch resp.Kind {
		case proto.KindError:
			// Overload refusals keep their sentinel across cluster
			// forwarding: a non-owner rank wraps the owner's message
			// ("forward shard N...: peer: overloaded, retry"), so match by
			// substring, not equality.
			if strings.Contains(resp.Err, proto.OverloadedMsg) {
				res.err = fmt.Errorf("%w: server: %s", ErrOverloaded, resp.Err)
			} else {
				res.err = fmt.Errorf("panda: server: %s", resp.Err)
			}
		case proto.KindStatsResult:
			st := &ServerStats{
				Queries:          int64(resp.Stats.Queries),
				Batches:          int64(resp.Stats.Batches),
				ActiveConns:      int(resp.Stats.ActiveConns),
				PeerFailures:     int64(resp.Stats.PeerFailures),
				Failovers:        int64(resp.Stats.Failovers),
				Redials:          int64(resp.Stats.Redials),
				ReplicationBytes: int64(resp.Stats.ReplicationBytes),
				Shed:             int64(resp.Stats.Shed),
			}
			if st.Batches > 0 {
				st.MeanBatchSize = float64(st.Queries) / float64(st.Batches)
			}
			res.stats = st
		default:
			// Copy out of the decode scratch: the waiter owns its result.
			res.flat = append([]Neighbor(nil), resp.Flat...)
			res.offsets = append([]int32(nil), resp.Offsets...)
			if len(resp.Spans) > 0 {
				res.spans = make([]TraceSpan, len(resp.Spans))
				for i, sp := range resp.Spans {
					res.spans[i] = TraceSpan{Stage: proto.StageName(sp.Stage), Rank: sp.Rank, Start: sp.Start, Dur: sp.Dur}
				}
			}
		}
		ch <- res
	}
}

// register allocates a request id and its result channel, returning the
// connection the request must be written to.
func (c *Client) register() (uint64, chan clientResult, net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, nil, c.err
	}
	id := c.nextID
	c.nextID++
	ch := make(chan clientResult, 1)
	c.pending[id] = ch
	return id, ch, c.nc, nil
}

// send frames and writes one encoded request payload to nc.
func (c *Client) send(nc net.Conn, encode func(b []byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = proto.BeginFrame(c.wbuf[:0])
	c.wbuf = encode(c.wbuf)
	if err := proto.FinishFrame(c.wbuf, 0); err != nil {
		return err
	}
	_, err := nc.Write(c.wbuf)
	return err
}

// call issues one request on the current connection and waits for its
// response (no retries; see callRetry).
func (c *Client) call(encode func(b []byte, id uint64) []byte) (clientResult, error) {
	id, ch, nc, err := c.register()
	if err != nil {
		return clientResult{}, err
	}
	if err := c.send(nc, func(b []byte) []byte { return encode(b, id) }); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// The request never reached the server; flag the connection so the
		// next attempt (and other in-flight callers) redial instead of
		// writing into a broken pipe.
		err = fmt.Errorf("%w: send: %w", errConnLost, err)
		c.connFailed(nc, err)
		return clientResult{}, err
	}
	res := <-ch
	return res, res.err
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
	return res.flat, nil
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
	return res.flat, res.spans, nil
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
	if nq := len(queries) / c.id.Dims; int64(nq)*int64(k) > proto.MaxResultNeighbors {
		return nil, fmt.Errorf("panda: %d queries × k=%d exceeds the %d-neighbor response cap; split the batch",
			nq, k, proto.MaxResultNeighbors)
	}
	res, err := c.callRetry(func(b []byte, id uint64) []byte {
		return proto.AppendKNNRequest(b, id, k, queries, c.id.Dims)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(res.offsets)-1)
	for i := range out {
		out[i] = res.flat[res.offsets[i]:res.offsets[i+1]:res.offsets[i+1]]
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
	if res.stats == nil {
		return ServerStats{}, fmt.Errorf("panda: server answered a stats request with a non-stats response")
	}
	return *res.stats, nil
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
	return res.flat, nil
}
