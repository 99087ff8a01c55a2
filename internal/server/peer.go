package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"panda"
	"panda/internal/proto"
)

// errPeerClosed is returned by peer calls whose connection died (the remote
// rank went away or this server is shutting down).
var errPeerClosed = errors.New("server: peer connection closed")

// errPeerTimeout is returned by peer calls that ran out of time waiting for
// the response (a wedged or overloaded peer).
var errPeerTimeout = errors.New("server: peer call timed out")

// isTransportErr reports whether a peer-call error means the peer itself is
// unreachable or broken — the class of failure that should count against its
// health and trigger failover — as opposed to a semantic KindError answer,
// which proves the peer is alive and talking.
func isTransportErr(err error) bool {
	return errors.Is(err, errPeerClosed) || errors.Is(err, errPeerTimeout)
}

// Redial backoff bounds: after a dial failure the peer refuses further dial
// attempts for a jittered exponential delay, so a dead rank costs each query
// one cached error instead of one dial timeout, and a rank rejoining does
// not face a thundering herd of reconnects.
const (
	peerRedialBase = 100 * time.Millisecond
	peerRedialMax  = 5 * time.Second
)

// peer is this rank's client to one other rank's serving endpoint. It
// speaks the ordinary client protocol (internal/proto) over one pipelined
// connection, and every query call names the shard it addresses — whether
// the peer is that shard's primary or a replica holder: forwarded queries
// are KindShardKNN, the remote-candidate exchange KindShardRemoteKNN, radius
// legs KindShardRadius. The receiver answers from its copy of the named
// shard without re-routing, which is what makes every call terminate at the
// peer. The connection is dialed lazily on first use and redialed with
// jittered exponential backoff after failures, so rank start-up order does
// not matter and a restarted rank heals without coordination.
type peer struct {
	rank        int
	addr        string
	dims        int
	dialTimeout time.Duration
	callTimeout time.Duration

	// redials counts reconnect attempts after a broken link; nil disables.
	redials *atomic.Int64

	// probing guards the heartbeat loop's in-flight ping: a tick skips a
	// peer whose previous probe has not resolved, so a wedged peer holds one
	// outstanding ping instead of accumulating one per interval.
	probing atomic.Bool

	mu        sync.Mutex
	pc        *peerConn
	shutdown  bool // sticky: set by close(); no redials afterwards
	dialFails int  // consecutive dial failures (resets on success)
	nextDial  time.Time
	dialErr   error // cached dial error served while backing off
}

// conn returns the live connection, dialing if needed. The dial happens
// outside the peer lock so close() — and with it Shutdown — never blocks
// behind an in-progress dial; concurrent first users may race to dial and
// the loser's connection is discarded. While the redial backoff window is
// open the cached dial error is returned immediately: queries to a dead
// peer fail over in microseconds instead of serializing behind dials.
func (p *peer) conn() (*peerConn, error) {
	p.mu.Lock()
	if p.shutdown {
		p.mu.Unlock()
		return nil, errPeerClosed
	}
	if p.pc != nil && !p.pc.closed() {
		pc := p.pc
		p.mu.Unlock()
		return pc, nil
	}
	if p.dialFails > 0 && time.Now().Before(p.nextDial) {
		err := p.dialErr
		p.mu.Unlock()
		return nil, fmt.Errorf("rank %d (%s) backing off: %w: %w", p.rank, p.addr, errPeerClosed, err)
	}
	redial := p.pc != nil || p.dialFails > 0 // not the first-ever dial
	p.mu.Unlock()

	if redial && p.redials != nil {
		p.redials.Add(1)
	}
	pc, err := dialPeer(p.addr, p.dims, p.dialTimeout)
	if err != nil {
		p.mu.Lock()
		d := peerRedialBase << p.dialFails
		if d > peerRedialMax || d <= 0 {
			d = peerRedialMax
		}
		// Jitter: uniform in [d/2, 3d/2) so a cluster's redials decorrelate.
		d = d/2 + time.Duration(rand.Int63n(int64(d)))
		p.dialFails++
		p.nextDial = time.Now().Add(d)
		p.dialErr = err
		p.mu.Unlock()
		return nil, fmt.Errorf("rank %d (%s): %w: %w", p.rank, p.addr, errPeerClosed, err)
	}
	p.mu.Lock()
	if p.shutdown {
		p.mu.Unlock()
		pc.fail(errPeerClosed)
		return nil, errPeerClosed
	}
	p.dialFails = 0
	p.dialErr = nil
	if p.pc != nil && !p.pc.closed() {
		// Lost the dial race; use the established connection.
		won := p.pc
		p.mu.Unlock()
		pc.fail(errPeerClosed)
		return won, nil
	}
	p.pc = pc
	p.mu.Unlock()
	return pc, nil
}

// close permanently tears the peer down: the current connection's in-flight
// calls fail, and later conn() calls return errPeerClosed instead of
// redialing (Shutdown relies on this to force stuck routes to finish).
func (p *peer) close() {
	p.mu.Lock()
	p.shutdown = true
	pc := p.pc
	p.pc = nil
	p.mu.Unlock()
	if pc != nil {
		pc.fail(errPeerClosed)
	}
}

// forwardShardKNN forwards whole queries to a holder of shard, which runs
// the owner pipeline (local KNN + remote exchange) on its copy of that shard
// and answers final per-query neighbor lists. A non-nil tc rides the trace
// id on the request and collects the spans the peer answers with.
func (p *peer) forwardShardKNN(shard int, coords []float32, k, dims int, tc *traceCtx) ([]panda.Neighbor, []int32, error) {
	pc, err := p.conn()
	if err != nil {
		return nil, nil, err
	}
	res := pc.call(p.callTimeout, func(b []byte, id uint64) []byte {
		return tc.appendTrailer(proto.AppendShardKNNRequest(b, id, shard, k, coords, dims))
	})
	tc.addRemote(res.spans)
	return res.flat, res.offsets, res.err
}

// shardRemoteKNN asks the peer for shard's candidates strictly within r2 of
// q (§III-B step 4), answered from the peer's copy of that shard.
func (p *peer) shardRemoteKNN(shard int, q []float32, k int, r2 float32, tc *traceCtx) ([]panda.Neighbor, error) {
	pc, err := p.conn()
	if err != nil {
		return nil, err
	}
	res := pc.call(p.callTimeout, func(b []byte, id uint64) []byte {
		return tc.appendTrailer(proto.AppendShardRemoteKNNRequest(b, id, shard, k, r2, q))
	})
	tc.addRemote(res.spans)
	return res.flat, res.err
}

// shardRadius asks the peer for shard's points within r2 of q, answered
// from the peer's copy of that shard.
func (p *peer) shardRadius(shard int, q []float32, r2 float32, tc *traceCtx) ([]panda.Neighbor, error) {
	pc, err := p.conn()
	if err != nil {
		return nil, err
	}
	res := pc.call(p.callTimeout, func(b []byte, id uint64) []byte {
		return tc.appendTrailer(proto.AppendShardRadiusRequest(b, id, shard, r2, q))
	})
	tc.addRemote(res.spans)
	return res.flat, res.err
}

// ping round-trips a KindPing through the peer's reader (the health loop's
// probe). timeout bounds the whole call.
func (p *peer) ping(timeout time.Duration) error {
	pc, err := p.conn()
	if err != nil {
		return err
	}
	res := pc.call(timeout, func(b []byte, id uint64) []byte {
		return proto.AppendPingRequest(b, id)
	})
	return res.err
}

// fetchSection asks the peer for one chunk of shard's snapshot file
// starting at off (the re-replication transport). The returned data is
// owned by the caller; crc is the peer-computed crc32c the Assembler
// re-verifies.
func (p *peer) fetchSection(shard int, off uint64, maxLen int) (data []byte, fileSize uint64, crc uint32, err error) {
	pc, err := p.conn()
	if err != nil {
		return nil, 0, 0, err
	}
	res := pc.call(p.callTimeout, func(b []byte, id uint64) []byte {
		return proto.AppendFetchSectionRequest(b, id, shard, off, maxLen)
	})
	if res.err != nil {
		return nil, 0, 0, res.err
	}
	if res.shard != shard {
		return nil, 0, 0, fmt.Errorf("server: peer answered section of shard %d, asked for %d", res.shard, shard)
	}
	return res.data, res.fileSize, res.chunkCRC, nil
}

// peerResult is one decoded peer response, copied out of the read loop's
// decode scratch so the waiter owns it. Which fields are set depends on the
// response kind: neighbors fill flat/offsets, section data fills
// data/fileSize/chunkCRC/shard, a pong fills nothing.
type peerResult struct {
	flat    []panda.Neighbor
	offsets []int32

	// spans are the peer's trace spans for this call (traced requests only).
	spans []proto.TraceSpan

	shard    int
	fileSize uint64
	chunkCRC uint32
	data     []byte

	err error
}

// peerConn is one pipelined connection to a peer rank: concurrent calls
// share it with client-chosen request ids, exactly like panda.Client.
type peerConn struct {
	nc   net.Conn
	dims int // from the peer's welcome

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan peerResult
	err     error // sticky; set when the connection dies
}

// dialPeer connects and handshakes. With dims >= 0 the peer must serve a
// tree of that dimensionality (all shards of one cluster do); dims < 0
// skips the check — used by the join fetcher, which learns the cluster's
// dimensionality from the welcome.
func dialPeer(addr string, dims int, timeout time.Duration) (*peerConn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	nc.SetDeadline(time.Now().Add(timeout))
	// Peers are ranks of the same cluster, which serve exactly one dataset:
	// bind the default tenant.
	if _, err := nc.Write(proto.AppendHello(nil, "")); err != nil {
		nc.Close()
		return nil, fmt.Errorf("peer handshake: %w", err)
	}
	id, err := proto.ReadWelcome(nc)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("peer handshake: %w", err)
	}
	if dims >= 0 && id.Dims != dims {
		nc.Close()
		return nil, fmt.Errorf("peer serves %d-dim tree, want %d", id.Dims, dims)
	}
	nc.SetDeadline(time.Time{})
	pc := &peerConn{nc: nc, dims: id.Dims, waiting: map[uint64]chan peerResult{}}
	go pc.readLoop()
	return pc, nil
}

func (pc *peerConn) closed() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.err != nil
}

// fail marks the connection dead and releases every waiter.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
	}
	for id, ch := range pc.waiting {
		delete(pc.waiting, id)
		ch <- peerResult{err: pc.err}
	}
	pc.mu.Unlock()
	pc.nc.Close()
}

// readLoop routes responses to waiters by request id.
func (pc *peerConn) readLoop() {
	var buf []byte
	var resp proto.Response
	for {
		payload, err := proto.ReadFrame(pc.nc, buf)
		if err != nil {
			pc.fail(fmt.Errorf("%w: %w", errPeerClosed, err))
			return
		}
		buf = payload
		if err := proto.ConsumeResponse(payload, &resp); err != nil {
			pc.fail(fmt.Errorf("server: malformed peer response: %w", err))
			return
		}
		pc.mu.Lock()
		ch := pc.waiting[resp.ID]
		delete(pc.waiting, resp.ID)
		pc.mu.Unlock()
		if ch == nil {
			continue // abandoned (timed-out) id
		}
		res := peerResult{}
		switch resp.Kind {
		case proto.KindError:
			res.err = fmt.Errorf("server: peer: %s", resp.Err)
		case proto.KindPong:
			// Liveness proven; nothing to carry.
		case proto.KindSectionData:
			res.shard = resp.Shard
			res.fileSize = resp.FileSize
			res.chunkCRC = resp.ChunkCRC
			res.data = append([]byte(nil), resp.Data...)
		default:
			res.flat = append([]panda.Neighbor(nil), resp.Flat...)
			res.offsets = append([]int32(nil), resp.Offsets...)
			if len(resp.Spans) > 0 {
				res.spans = append([]proto.TraceSpan(nil), resp.Spans...)
			}
		}
		ch <- res
	}
}

// call issues one request and waits for its response (bounded by timeout so
// a wedged peer cannot pin a router goroutine forever). Returned offsets
// are 0-based.
func (pc *peerConn) call(timeout time.Duration, encode func(b []byte, id uint64) []byte) peerResult {
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return peerResult{err: err}
	}
	id := pc.nextID
	pc.nextID++
	ch := make(chan peerResult, 1)
	pc.waiting[id] = ch
	pc.mu.Unlock()

	pc.wmu.Lock()
	pc.wbuf = proto.BeginFrame(pc.wbuf[:0])
	pc.wbuf = encode(pc.wbuf, id)
	err := proto.FinishFrame(pc.wbuf, 0)
	if err == nil {
		// Deadline the write too: a peer that stopped reading (with full
		// TCP buffers) would otherwise block here forever while holding
		// wmu, pinning every caller despite the post-write timeout below.
		pc.nc.SetWriteDeadline(time.Now().Add(timeout))
		_, err = pc.nc.Write(pc.wbuf)
	}
	pc.wmu.Unlock()
	if err != nil {
		pc.mu.Lock()
		delete(pc.waiting, id)
		pc.mu.Unlock()
		err = fmt.Errorf("%w: %w", errPeerClosed, err)
		pc.fail(err)
		return peerResult{err: err}
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res
	case <-timer.C:
		pc.mu.Lock()
		delete(pc.waiting, id)
		pc.mu.Unlock()
		return peerResult{err: fmt.Errorf("%w after %v", errPeerTimeout, timeout)}
	}
}
