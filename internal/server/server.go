// Package server is PANDA's network serving layer: it owns a built
// panda.Tree and answers KNN and radius-search queries over TCP, speaking
// the versioned length-prefixed protocol of internal/proto (handshake,
// frame layout, and message kinds are documented there). NewCluster extends
// the same server into one rank of a sharded cluster — see cluster.go for
// the distributed query pipeline.
//
// # Dynamic micro-batching
//
// The server's core mechanism converts independent single-query client
// traffic into the batched engine's hot path. Each connection has a reader
// goroutine that decodes requests and enqueues them on a shared intake
// queue. A dispatcher goroutine takes whatever has accumulated — up to
// Config.MaxBatch queries, never waiting for more — groups the KNN queries
// by k, concatenates their coordinates, and answers each group with one
// Tree.KNNBatchFlatInto call on the pooled zero-allocation engine.
// Each connection gets one write per round, as the paper's rounds pack each
// destination's messages into one buffer, and readers parse frames out of a
// 4 KiB buffer. Batching is natural: requests that arrive while one round
// runs are the next round's batch, so batches grow with load, and a lone
// query on an idle server is dispatched at once. A thousand independent
// clients therefore get batched-engine throughput without changing their
// one-query-at-a-time API. Radius queries ride in the same intake but run
// individually on pooled searchers (they have no fixed result size to batch
// into an arena).
//
// Request structs, coordinate buffers, result arenas, and response encode
// buffers are all recycled, so the steady-state dispatch loop performs zero
// allocations per query.
//
// # One reply path
//
// The reader answers stats, pings and refusals itself (conn.writeAnswer).
// Every other response, from the dispatcher or the cluster router, is
// staged by Server.stage, which releases its admission, and leaves through
// Server.flush, which writes each connection once and observes requests.
// Each request carries one stage ledger (pending.spent): whoever dequeues
// it charges queue wait, the dispatcher charges linger and engine, router
// legs charge remote exchange, and an owner-local leg's ledger is added to
// the request that spawned it. At observation the ledger plus decode and
// response write gives the six stages of the metrics and traces.
//
// # Batching semantics
//
// Requests are answered exactly once, in no guaranteed order relative to
// other requests (clients match responses by id). A batch request larger
// than MaxBatch is not split: it runs as its own engine call. Grouping by k
// happens within one coalesced batch only. Malformed frames are answered
// with a KindError response when the request id is recoverable, and the
// connection is closed either way; semantic errors (bad k, wrong coordinate
// count) are answered with KindError and the connection stays usable.
//
// # Wire format
//
// In brief (internal/proto is the authoritative reference): a connection
// opens with a versioned handshake — client sends magic "PNDQ" + version +
// dataset name, server answers magic + version + the bound dataset id (tree
// dims, point count, fingerprint, name). A hello it cannot bind (unknown
// dataset, other version) gets a welcome with zeroed dims/points, then the
// connection closes, so the client can report the unknown dataset or
// "server speaks version 3" rather than an unexplained drop. After that,
// both directions carry length-prefixed frames (uint32 length, capped at
// proto.MaxFrame) whose payload is kind byte + uint64 request id + a
// kind-specific body: KNN requests carry k, a query count, and packed
// float32 coordinates; radius requests carry r² and one point; neighbor
// responses carry per-query counts followed by (id int64, dist² float32)
// pairs; error responses carry a message string. All integers and floats
// are little-endian. Request ids are client-chosen and echoed verbatim,
// which is what allows pipelining and out-of-order responses.
//
// # Shutdown
//
// Shutdown stops accepting connections, unblocks every connection reader,
// waits for the dispatcher to answer all requests already read off the
// wire, then closes the connections — an in-flight query enqueued before
// Shutdown always receives its response.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"panda"
	"panda/internal/proto"
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Config tunes the serving layer. The zero value gives the defaults noted
// on each field.
type Config struct {
	// MaxBatch is the most queries the dispatcher coalesces into one
	// engine call (default 64). A single oversize batch request still runs
	// whole. The intake queue holds 4×MaxBatch requests.
	MaxBatch int
	// MaxInFlight, when > 0, enables admission control: the server bounds
	// admitted-but-unanswered query work to this many queries (a batch
	// request weighs its NQ). A request arriving over the limit is refused
	// immediately with a clean KindError (proto.OverloadedMsg) instead of
	// queueing, so overload sheds load with bounded latency for admitted
	// queries rather than stacking an unbounded backlog. Zero disables
	// shedding: the bounded intake applies TCP backpressure as before.
	// Stats/ping requests and snapshot section streaming are never shed.
	MaxInFlight int
	// TraceSample is the probability in [0,1] that the server samples an
	// external query request for trace capture (default 0: only client-
	// requested traces and slow queries reach the trace ring). Sampling
	// decides capture, not measurement — the stage histograms observe every
	// request either way.
	TraceSample float64
	// SlowQuery, when > 0, always captures requests slower than this to the
	// trace ring (even unsampled ones) and counts them in panda_slow_total.
	SlowQuery time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

const (
	// writeTimeout bounds each write of a flush. The single dispatcher
	// flushes rounds synchronously, so a client that stops draining its
	// socket stalls its round's other connections for up to one
	// writeTimeout; after that the connection is closed and costs nothing.
	// (Per-connection writer queues would remove the one-timeout stall;
	// they are future work.)
	writeTimeout = 2 * time.Second
	// flushBytes: a round flushes early once it has staged this much, so an
	// outbox holds and writes at most this plus one frame at a time.
	flushBytes = 256 << 10
	// handshakeTimeout bounds the initial hello exchange.
	handshakeTimeout = 10 * time.Second
)

// server lifecycle states.
const (
	stateIdle = iota
	stateServing
	stateDraining
	stateClosed
)

// Server serves one built tree. Create with New, start with Serve on a
// listener, stop with Shutdown. All methods are safe for concurrent
// use. A Server created with NewCluster additionally routes queries across
// the cluster (see cluster.go); the single-tree dispatch machinery below is
// shared by both modes.
type Server struct {
	// reg maps dataset names to engines (tree + per-tenant counters);
	// def is reg's default tenant, the one an empty dataset name binds to.
	// Immutable once Serve starts.
	reg *Registry
	def *engine
	cfg Config

	// cluster is non-nil in cluster serving mode: externally-routable
	// requests detour through its router instead of the local intake.
	cluster *router
	// routes tracks in-flight router goroutines; Shutdown drains them
	// (they may still need the dispatcher) before closing the intake.
	routes sync.WaitGroup

	intake chan *pending

	mu      sync.Mutex
	state   int
	ln      net.Listener
	conns   map[*conn]struct{}
	readers sync.WaitGroup

	dispatcherUp   bool
	dispatcherDone chan struct{}
	// hold, when non-nil, parks the dispatcher at the top of every round
	// until it is closed; tests set it before Serve to queue requests that
	// are read but not yet dispatched. Always nil outside tests.
	hold chan struct{}

	pendingPool sync.Pool

	// statBatches counts dispatch rounds — coalesced engine passes — so
	// Stats.Queries/statBatches is the achieved micro-batching factor. The
	// query, shed and slow counters live on the tenants (engine) only; the
	// globals are their sums, taken at read time.
	statBatches atomic.Int64

	// Robustness counters (zero on an un-replicated server): incremented by
	// the peer layer and failover router, read by Stats.
	statPeerFailures atomic.Int64
	statFailovers    atomic.Int64
	statRedials      atomic.Int64
	statReplBytes    atomic.Int64

	// Admission control (Config.MaxInFlight): inflight is the admitted
	// query weight not yet answered.
	inflight atomic.Int64

	// metrics holds the stage decomposition of request latency and the
	// per-kind request counters exported by WriteMetrics/MetricsHandler.
	metrics metrics

	// Tracing: rank labels this server's spans (-1 single-node, the cluster
	// rank otherwise), traces retains recent sampled/slow captures for
	// /debug/traces.
	rank   int32
	traces *traceRing
}

// Stats is a point-in-time snapshot of the serving counters — the same
// struct a client reads with panda.Client.Stats.
type Stats = panda.ServerStats

// Stats returns the serving counters. Safe for concurrent use; the
// counters are monotone but mutually unsynchronized (a concurrent dispatch
// round may be counted in Batches and not yet in Queries). Queries and Shed
// are the sums of the per-tenant counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Batches:          s.statBatches.Load(),
		PeerFailures:     s.statPeerFailures.Load(),
		Failovers:        s.statFailovers.Load(),
		Redials:          s.statRedials.Load(),
		ReplicationBytes: s.statReplBytes.Load(),
	}
	for _, e := range s.reg.tenants {
		st.Queries += e.queries.Load()
		st.Shed += e.shed.Load()
	}
	if st.Batches > 0 {
		st.MeanBatchSize = float64(st.Queries) / float64(st.Batches)
	}
	s.mu.Lock()
	st.ActiveConns = len(s.conns)
	s.mu.Unlock()
	return st
}

// New returns an unstarted single-tenant server for tree, registered as the
// default dataset. Multi-dataset serving goes through NewMulti.
func New(tree *panda.Tree, cfg Config) *Server {
	reg := NewRegistry()
	if err := reg.Add(proto.DefaultDataset, tree); err != nil {
		// Unreachable: the default name is valid and the registry is empty.
		panic(err)
	}
	s, err := NewMulti(reg, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewMulti returns an unstarted server hosting every dataset in reg. The
// registry must not be modified afterwards. Each client connection binds to
// one dataset at handshake — the one its hello names, or reg's first-added
// (default) tenant for an empty name.
func NewMulti(reg *Registry, cfg Config) (*Server, error) {
	if reg == nil || len(reg.order) == 0 {
		return nil, errors.New("server: registry has no datasets")
	}
	cfg = cfg.withDefaults()
	return &Server{
		reg:            reg,
		def:            reg.defaultEngine(),
		cfg:            cfg,
		intake:         make(chan *pending, 4*cfg.MaxBatch),
		conns:          map[*conn]struct{}{},
		dispatcherDone: make(chan struct{}),
		rank:           -1,
		traces:         newTraceRing(traceRingSize),
	}, nil
}

// Addr returns the listener address once Serve has been called (nil
// before).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after a clean Shutdown the error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.state != stateIdle {
		drained := s.state >= stateDraining
		s.mu.Unlock()
		if drained {
			// Shutdown won the race with Serve: it could not have seen this
			// listener, so close it here instead of leaking the port.
			ln.Close()
			return ErrServerClosed
		}
		return fmt.Errorf("server: Serve called twice")
	}
	s.state = stateServing
	s.ln = ln
	s.dispatcherUp = true
	s.mu.Unlock()
	go s.dispatch()
	if s.cluster != nil {
		go s.cluster.heartbeatLoop(s.cluster.hbStop)
	}

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.state >= stateDraining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		c := &conn{nc: nc}
		s.mu.Lock()
		if s.state != stateServing {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.readers.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Shutdown gracefully stops the server: no new connections are accepted,
// requests already read off the wire are answered, then every connection
// is closed. If ctx expires first the remaining connections are closed
// immediately and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.state == stateClosed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.state == stateDraining
	s.state = stateDraining
	ln := s.ln
	dispatcherUp := s.dispatcherUp
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if alreadyDraining {
		// A concurrent Shutdown is already driving the drain; just wait.
		select {
		case <-s.dispatcherDone:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	if ln != nil {
		ln.Close()
	}
	// Unblock every reader; draining readers exit without closing their
	// connection so queued responses can still be written.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}

	drained := make(chan struct{})
	go func() {
		s.readers.Wait()
		// Router goroutines may still need the dispatcher (local stages)
		// and the peer connections (remote stages): wait for them before
		// closing the intake.
		s.routes.Wait()
		close(s.intake)
		if dispatcherUp {
			<-s.dispatcherDone
		} else {
			close(s.dispatcherDone)
		}
		close(drained)
	}()

	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		// Force stuck router goroutines to finish: failing the peer
		// connections errors their in-flight remote calls (a cluster-wide
		// simultaneous shutdown can otherwise cross-wait on peers that have
		// already stopped reading).
		if s.cluster != nil {
			s.cluster.closePeers()
		}
	}
	s.mu.Lock()
	s.state = stateClosed
	for c := range s.conns {
		c.close()
		delete(s.conns, c)
	}
	s.mu.Unlock()
	if s.cluster != nil {
		s.cluster.closePeers()
	}
	return err
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state >= stateDraining
}

// removeConn drops c from the conn table (reader-initiated close paths).
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// conn is one client connection. The reader goroutine is the only reader;
// writes (flushed rounds, the reader's own answers) serialize on wmu.
type conn struct {
	nc   net.Conn
	wmu  sync.Mutex
	dead atomic.Bool
	// unanswered counts the requests the reader handed on but no flush wrote.
	unanswered sync.WaitGroup
	// eng is the dataset this connection bound to at handshake; every
	// request it sends is answered from that engine's tree and counted
	// against that tenant. Written once by the reader before any request is
	// decoded.
	eng *engine
	// routeSem (cluster mode) bounds this connection's in-flight routed
	// requests: the reader blocks acquiring a slot, so a client that
	// pipelines without reading responses stalls itself instead of growing
	// an unbounded goroutine/heap backlog. Single-node mode gets the same
	// backpressure from the bounded intake channel. Per-connection (not
	// global) so forwarded peer traffic can never be starved of slots by
	// local clients — that independence is what keeps saturated
	// bidirectional forwarding deadlock-free.
	routeSem chan struct{}
	// rng is the reader's private xorshift64 state for trace sampling and id
	// generation — per-connection so the hot path never touches a shared
	// lock or allocates. Only the reader goroutine uses it.
	rng uint64
}

// nextRand advances the reader's xorshift64 generator (seeded lazily from
// the clock; statistical quality only matters for sampling fairness).
func (c *conn) nextRand() uint64 {
	x := c.rng
	if x == 0 {
		x = uint64(time.Now().UnixNano()) | 1
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

// sample reports true with probability rate (caller guarantees rate > 0;
// rate ≥ 1 always samples).
func (c *conn) sample(rate float64) bool {
	return float64(c.nextRand()>>11)*(1.0/(1<<53)) < rate
}

// newTraceID returns a nonzero id for a server-sampled trace.
func (c *conn) newTraceID() uint64 {
	for {
		if id := c.nextRand(); id != 0 {
			return id
		}
	}
}

func (c *conn) close() {
	c.dead.Store(true)
	c.nc.Close()
}

// writeFrame writes already-framed bytes (length prefixes included) under
// writeTimeout. Errors mark the connection dead; the dispatcher keeps going.
func (c *conn) writeFrame(buf []byte) error {
	if c.dead.Load() {
		return net.ErrClosed
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := c.nc.Write(buf)
	if err != nil {
		c.dead.Store(true)
	}
	return err
}

// writeAnswer finishes and writes one of the reader's own answers (stats,
// pong, or a refusal). Their bodies are small and error messages are capped
// by proto, so the frame always fits.
func (c *conn) writeAnswer(frame []byte) {
	_ = proto.FinishFrame(frame, 0)
	c.writeFrame(frame)
}

// pending is one request waiting for dispatch. Its request struct (and the
// coords buffer inside) is recycled through the server's pool. When done is
// non-nil the request is an internal stage of the cluster router: the
// dispatcher invokes done with the results instead of writing a response to
// c. The slices passed to done view the dispatcher's reused arenas and are
// valid only for the duration of the call — copy before returning.
type pending struct {
	c    *conn
	req  proto.Request
	done func(flat []panda.Neighbor, offsets []int32, err error)
	// eng is the dataset this request is counted against (the connection's
	// bound tenant; the default engine for internal router stages), and tree
	// is the one of eng's shard trees it runs against, resolved when the
	// request is enqueued. The dispatcher groups coalesced KNN work by
	// (tree, k).
	eng  *engine
	tree *panda.Tree
	// arrived is when the reader decoded the request off the wire (for an
	// internal router stage, when the router enqueued it): queue wait and
	// end-to-end latency run from here. decodeStart is when the reader had
	// the frame in hand, so decode ends at arrived. dequeued is when the
	// dispatcher or the router took the request up; linger runs from there.
	arrived     time.Time
	decodeStart time.Time
	dequeued    time.Time
	// admitted is the query weight this request holds against the server's
	// in-flight admission limit (0 when admission control is off or the
	// request is exempt); released by releaseAdmission.
	admitted int64

	// spent is the request's stage ledger, nanoseconds per proto stage.
	// Whoever dequeues the request charges its queue wait, the dispatcher
	// charges linger and engine, router legs charge remote exchange (and
	// engine for work they do themselves), and an owner-local leg's ledger
	// is added in when its internal stage answers. Parallel legs of one
	// request charge concurrently. stages adds decode and response write.
	spent [proto.NumStages]atomic.Int64

	// trace is non-nil when this request is traced (client-requested or
	// server-sampled): it carries the trace id onto peer calls and collects
	// the spans remote ranks return.
	trace *traceCtx
}

// charge adds d to the ledger entry of stage.
func (p *pending) charge(stage uint8, d time.Duration) {
	p.spent[stage].Add(int64(d))
}

// dequeue stamps p as taken up by the dispatcher or the router and charges
// its queue wait.
func (p *pending) dequeue() {
	p.dequeued = time.Now()
	p.charge(proto.StageQueueWait, p.dequeued.Sub(p.arrived))
}

// stages is the request's six stage durations at observation: the ledger
// plus decode and response write (writeStart to end). On the dispatcher
// path the charged stages run back to back from arrived to writeStart, so
// the post-arrival stages sum exactly to end−arrived, which is what
// reconciles the stage histograms with the end-to-end one. A routed
// request's ledger sums its legs, which overlap in time when they run in
// parallel.
func (p *pending) stages(writeStart, end time.Time) [proto.NumStages]time.Duration {
	var st [proto.NumStages]time.Duration
	for i := range st {
		st[i] = time.Duration(p.spent[i].Load())
	}
	st[proto.StageDecode] = p.arrived.Sub(p.decodeStart)
	st[proto.StageResponseWrite] = end.Sub(writeStart)
	return st
}

func (s *Server) getPending() *pending {
	if p, ok := s.pendingPool.Get().(*pending); ok {
		return p
	}
	return &pending{}
}

// releaseAdmission returns p's weight to the admission limit. stage calls it
// before the bytes leave, so a client holding its answer is never shed by
// its own finished request; putPending covers the rest.
func (s *Server) releaseAdmission(p *pending) {
	if p.admitted > 0 {
		s.inflight.Add(-p.admitted)
		p.admitted = 0
	}
}

func (s *Server) putPending(p *pending) {
	s.releaseAdmission(p)
	p.c = nil
	p.done = nil
	p.eng = nil
	p.tree = nil
	p.arrived = time.Time{}
	p.decodeStart = time.Time{}
	p.dequeued = time.Time{}
	for i := range p.spent {
		p.spent[i].Store(0)
	}
	p.trace = nil
	s.pendingPool.Put(p)
}

// admit charges p's query weight against Config.MaxInFlight and reports
// whether p may proceed; a refused request counts as shed on its tenant.
// Section fetches are exempt: replication repair must not be starved by
// query overload.
func (s *Server) admit(p *pending) bool {
	if s.cfg.MaxInFlight <= 0 || p.req.Kind == proto.KindFetchSection {
		return true
	}
	weight := max(int64(p.req.NQ), 1)
	if s.inflight.Add(weight) > int64(s.cfg.MaxInFlight) {
		s.inflight.Add(-weight)
		p.eng.shed.Add(1)
		return false
	}
	p.admitted = weight
	return true
}

// serveConn is the per-connection reader: handshake, then decode frames and
// enqueue requests until the client disconnects or the server drains.
func (s *Server) serveConn(c *conn) {
	defer s.readers.Done()

	c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(c.nc) // a read syscall serves many small frames
	hello, err := proto.ReadHello(br)
	if err != nil {
		s.removeConn(c)
		c.close()
		return
	}
	if hello.Version == proto.Version {
		c.eng = s.reg.lookup(hello.Dataset)
	}
	if c.eng == nil {
		// Unknown dataset or any other version: reject with a v3 welcome
		// echoing the requested name with zeroed dims/points/fingerprint,
		// then close. A v3 client surfaces ErrUnknownDataset naming it; a
		// client of another version reads "server speaks version 3" from the
		// first 20 bytes before any tree metadata.
		c.writeFrame(proto.AppendWelcome(nil, proto.DatasetID{Name: hello.Dataset}))
		s.removeConn(c)
		c.close()
		return
	}
	if c.writeFrame(proto.AppendWelcome(nil, c.eng.id)) != nil {
		s.removeConn(c)
		c.close()
		return
	}
	c.nc.SetReadDeadline(time.Time{})
	dims := c.eng.id.Dims

	var buf []byte
	var ansBuf []byte
	for {
		payload, rerr := proto.ReadFrame(br, buf)
		if rerr != nil {
			break
		}
		decoded := time.Now() // frame in hand: the decode stage starts here
		buf = payload
		p := s.getPending()
		if derr := proto.ConsumeRequest(payload, dims, &p.req); derr != nil {
			s.putPending(p)
			// Answer with the reason when the request id survived.
			if len(payload) >= 9 {
				id := binary.LittleEndian.Uint64(payload[1:9])
				ansBuf = proto.AppendErrorResponse(proto.BeginFrame(ansBuf[:0]), id, derr.Error())
				c.writeAnswer(ansBuf)
			}
			// Semantic violations leave the stream correctly framed: keep
			// serving the connection. Structural failures mean we can no
			// longer trust the framing: drop it.
			if errors.Is(derr, proto.ErrMalformed) || len(payload) < 9 {
				break
			}
			continue
		}
		p.c = c
		p.eng = c.eng
		// The reader answers some requests itself. Stats and pings carry no
		// query work, so routing them through the dispatcher would only skew
		// the batching counters they report — and a ping must measure reader
		// liveness, not dispatcher queue depth. Shard-addressed and
		// section-streaming kinds only make sense on a cluster rank; a
		// single-node server refuses them without feeding them to the
		// dispatcher (which would misread them as plain KNN). Query work over
		// the admission limit is refused with a clean overload error — the
		// connection stays usable and the client can retry after backoff.
		var answer []byte
		switch {
		case p.req.Kind == proto.KindStats:
			st := s.Stats()
			answer = proto.AppendStatsResponse(proto.BeginFrame(ansBuf[:0]), p.req.ID, proto.StatsBody{
				Queries:          uint64(st.Queries),
				Batches:          uint64(st.Batches),
				ActiveConns:      uint32(st.ActiveConns),
				PeerFailures:     uint64(st.PeerFailures),
				Failovers:        uint64(st.Failovers),
				Redials:          uint64(st.Redials),
				ReplicationBytes: uint64(st.ReplicationBytes),
				Shed:             uint64(st.Shed),
			})
		case p.req.Kind == proto.KindPing:
			answer = proto.AppendPongResponse(proto.BeginFrame(ansBuf[:0]), p.req.ID)
		case s.cluster == nil && clusterOnlyKind(p.req.Kind):
			answer = proto.AppendErrorResponse(proto.BeginFrame(ansBuf[:0]), p.req.ID, "server: request kind requires cluster mode")
		case !s.admit(p):
			answer = proto.AppendOverloadedResponse(proto.BeginFrame(ansBuf[:0]), p.req.ID)
		}
		if answer != nil {
			ansBuf = answer
			s.putPending(p)
			c.writeAnswer(answer)
			continue
		}
		p.decodeStart = decoded
		p.arrived = time.Now()
		// Trace attach: always honor a client-requested trace; otherwise
		// roll the per-conn sampler. Untraced requests keep a nil ctx and
		// the response stays byte-identical to an untraced server's.
		if p.req.Traced {
			p.trace = newTraceCtx(p.req.TraceID)
		} else if s.cfg.TraceSample > 0 && proto.TraceableKind(p.req.Kind) && c.sample(s.cfg.TraceSample) {
			p.trace = newTraceCtx(c.newTraceID())
		}
		c.unanswered.Add(1)
		// Cluster mode: every remaining kind goes through the shard router
		// (owner lookup, forwarding, remote-candidate exchange, failover) in
		// its own goroutine so the reader keeps pipelining and the
		// dispatcher never blocks on the network. The router hands its
		// owner-local KNN and radius legs back to the dispatcher against the
		// held shard's tree; a peer's single-shard kinds answer on the router
		// goroutine, and section fetches are disk reads the dispatcher should
		// never wait behind.
		if s.cluster != nil {
			if c.routeSem == nil {
				c.routeSem = make(chan struct{}, cap(s.intake))
			}
			c.routeSem <- struct{}{} // backpressure: bounds in-flight routes
			s.routes.Add(1)
			go func(p *pending) {
				defer func() {
					<-c.routeSem
					s.routes.Done()
				}()
				s.cluster.route(p)
			}(p)
			continue
		}
		p.tree = c.eng.shards[0].Load() // a single-node tenant has one shard
		s.intake <- p
	}
	if !s.draining() {
		s.removeConn(c)
		c.unanswered.Wait() // answer what was read before a disconnect or bad frame
		c.close()
	}
}

// clusterOnlyKind reports whether kind is meaningful only on a cluster
// rank: shard-addressed queries (failover routing) and snapshot section
// streaming (re-replication and joins).
func clusterOnlyKind(kind byte) bool {
	switch kind {
	case proto.KindShardKNN, proto.KindShardRemoteKNN, proto.KindShardRadius, proto.KindFetchSection:
		return true
	}
	return false
}

// respond answers p through its done hook when p is an internal router
// stage, otherwise by staging a KindNeighbors frame (with the stage waterfall
// for a traced client). writeStart is where the response-write stage starts.
// offsets may be absolute into a larger arena: flat[0] is at offsets[0].
func (s *Server) respond(o *outbox, p *pending, writeStart time.Time, offsets []int32, flat []panda.Neighbor, err error) {
	if p.done != nil {
		p.done(flat, offsets, err)
		return
	}
	s.stage(o, p, writeStart, err, func(b []byte) []byte {
		b = proto.AppendNeighborsResponse(b, p.req.ID, offsets, flat)
		if p.trace != nil && p.req.Traced {
			// The wire's write span ends inside the frame being written; the
			// trace ring keeps the true post-flush value.
			spans := stageSpans(nil, s.rank, p.stages(writeStart, time.Now()))
			b = proto.AppendTraceSpans(b, p.trace.id, append(spans, p.trace.remoteSpans()...))
		}
		return b
	})
}

// outbox stages the external responses of one round — a dispatch round, or
// a routed reply as a round of one — per connection; its buffers are reused.
type outbox struct {
	conns  []*conn
	bufs   [][]byte // bufs[i] holds the frames staged for conns[i]
	staged int      // bytes staged since the last flush
	sent   []sent   // answered requests, observed after the flush
}

type sent struct {
	p          *pending
	writeStart time.Time
	err        error
}

// stage is the one place a response is staged: it frames what enc appends
// for p on p's connection (a linear scan: a round touches at most MaxBatch),
// or a KindError frame when err is set or the payload overflows a frame.
func (s *Server) stage(o *outbox, p *pending, writeStart time.Time, err error, enc func([]byte) []byte) {
	i := slices.Index(o.conns, p.c)
	if i < 0 {
		if i = len(o.conns); len(o.bufs) == i {
			o.bufs = append(o.bufs, nil)
		}
		o.conns, o.bufs[i] = append(o.conns, p.c), o.bufs[i][:0]
	}
	b := &o.bufs[i]
	start := len(*b)
	if err == nil {
		*b = enc(proto.BeginFrame(*b))
		err = proto.FinishFrame(*b, start)
	}
	if err != nil {
		*b = proto.AppendErrorResponse(proto.BeginFrame((*b)[:start]), p.req.ID, err.Error())
		_ = proto.FinishFrame(*b, start) // proto caps error messages far below MaxFrame
	}
	s.releaseAdmission(p) // the answer exists: admission ends before any byte leaves
	o.sent = append(o.sent, sent{p, writeStart, err})
	if o.staged += len(*b) - start; o.staged >= flushBytes {
		s.flush(o)
	}
}

// flush ends a round: it writes each connection's frames at once (a failed
// write closes the connection, unblocking its reader; a buffer grown past
// flushBytes is dropped), then observes each request at the post-flush stamp.
func (s *Server) flush(o *outbox) {
	for i, c := range o.conns {
		if c.writeFrame(o.bufs[i]) != nil {
			s.removeConn(c)
			c.close()
		}
		if cap(o.bufs[i]) > flushBytes {
			o.bufs[i] = nil
		}
	}
	end := time.Now()
	for _, r := range o.sent {
		s.observeRequest(r.p, r.writeStart, end, r.err)
		r.p.c.unanswered.Done()
	}
	clear(o.conns)
	clear(o.sent)
	o.conns, o.sent, o.staged = o.conns[:0], o.sent[:0], 0
}

// dispatcher holds the dispatch loop's recycled buffers.
type dispatcher struct {
	s     *Server
	batch []*pending // coalesced intake
	done  []bool     // batch[i] already answered (k-grouping marker)
	group []*pending // same-k members of the current engine call
	// engine call staging, reused across calls
	coords  []float32
	flat    []panda.Neighbor
	offsets []int32
	// radius staging
	radius []panda.Neighbor
	offs2  []int32
	// the round's responses, staged per connection
	out outbox
}

func newDispatcher(s *Server) *dispatcher {
	return &dispatcher{s: s, offs2: make([]int32, 2)}
}

// dispatch is the micro-batching loop: block for one request, take what
// else is already queued without blocking (up to MaxBatch queries),
// process, repeat. Nothing waits on a clock: whatever arrives during one
// round is picked up by the next. Exits when the intake closes, after
// draining everything still queued.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	d := newDispatcher(s)
	for {
		if s.hold != nil {
			<-s.hold
		}
		p, ok := <-s.intake
		if !ok {
			return
		}
		// Take p, then whatever else is already queued, without blocking.
		d.batch = d.batch[:0]
		for total := 0; ok; {
			p.dequeue()
			d.batch = append(d.batch, p)
			if total += p.req.NQ; total >= s.cfg.MaxBatch {
				break
			}
			select {
			case p, ok = <-s.intake:
			default:
				ok = false
			}
		}
		d.process()
	}
}

// process answers every request in d.batch: KNN requests grouped by
// (tree, k) into single engine calls, radius requests individually against
// their tree; queries count against each request's tenant. All staging
// buffers are reused; the loop allocates nothing once warm.
func (d *dispatcher) process() {
	s := d.s
	n := len(d.batch)
	closed := time.Now() // the micro-batch is closed: linger ends here
	for _, p := range d.batch {
		p.charge(proto.StageLinger, closed.Sub(p.dequeued))
		p.eng.queries.Add(int64(p.req.NQ))
	}
	s.statBatches.Add(1)
	if cap(d.done) < n {
		d.done = make([]bool, n)
	}
	d.done = d.done[:n]
	for i := range d.done {
		d.done[i] = false
	}

	for i := 0; i < n; i++ {
		if d.done[i] {
			continue
		}
		p := d.batch[i]
		if p.req.Kind == proto.KindRadius {
			d.done[i] = true
			d.radius = p.tree.RadiusSearchInto(p.req.Coords, p.req.R2, d.radius[:0])
			engined := time.Now()
			p.charge(proto.StageEngine, engined.Sub(closed))
			if len(d.radius) > proto.MaxResultNeighbors {
				// Refuse before encoding: a dense-enough ball would
				// otherwise build a response buffer beyond the frame cap.
				s.respond(&d.out, p, engined, nil, nil, fmt.Errorf("radius search matched %d points, exceeding the %d-neighbor response cap; shrink r2",
					len(d.radius), proto.MaxResultNeighbors))
				continue
			}
			d.offs2[0] = 0
			d.offs2[1] = int32(len(d.radius))
			s.respond(&d.out, p, engined, d.offs2, d.radius, nil)
			continue
		}
		// Gather every not-yet-answered KNN request for the same tree with
		// the same k: one engine call answers the whole group. Coalescing
		// never crosses trees — a tenant's shards and different tenants
		// each run their own engine call.
		k := p.req.K
		d.group = d.group[:0]
		d.coords = d.coords[:0]
		for j := i; j < n; j++ {
			q := d.batch[j]
			if d.done[j] || q.req.Kind != proto.KindKNN || q.req.K != k || q.tree != p.tree {
				continue
			}
			d.done[j] = true
			d.group = append(d.group, q)
			d.coords = append(d.coords, q.req.Coords...)
		}
		flat, offsets, err := p.tree.KNNBatchFlatInto(d.coords, k, d.flat, d.offsets)
		engined := time.Now()
		for _, q := range d.group {
			q.charge(proto.StageEngine, engined.Sub(closed))
		}
		if err != nil {
			for _, q := range d.group {
				s.respond(&d.out, q, engined, nil, nil, err)
			}
			continue
		}
		d.flat, d.offsets = flat, offsets
		// Fan the arena back out: request q owns queries [qpos, qpos+NQ).
		qpos := 0
		for _, q := range d.group {
			nq := q.req.NQ
			segOff := offsets[qpos : qpos+nq+1]
			s.respond(&d.out, q, engined, segOff, flat[segOff[0]:segOff[nq]], nil)
			qpos += nq
		}
	}
	s.flush(&d.out)
	for _, p := range d.batch {
		s.putPending(p)
	}
}
