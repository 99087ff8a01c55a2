package server

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"panda"
	"panda/internal/proto"
)

// isTransportErr reports whether a peer-call error means the peer itself is
// unreachable or broken — the class of failure that should count against its
// health and trigger failover — as opposed to a semantic KindError answer,
// which proves the peer is alive and talking.
func isTransportErr(err error) bool {
	return errors.Is(err, proto.ErrConnLost) || errors.Is(err, proto.ErrCallTimeout)
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
// speaks the ordinary client protocol over one pipelined proto.Conn, and
// every query call names the shard it addresses — whether the peer is that
// shard's primary or a replica holder: forwarded queries are KindShardKNN,
// the remote-candidate exchange KindShardRemoteKNN, radius legs
// KindShardRadius. The receiver answers from its copy of the named shard
// without re-routing, which is what makes every call terminate at the peer.
// The connection is dialed lazily on first use and redialed with
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
	pc        *proto.Conn
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
func (p *peer) conn() (*proto.Conn, error) {
	p.mu.Lock()
	if p.shutdown {
		p.mu.Unlock()
		return nil, proto.ErrConnLost
	}
	if p.pc != nil && p.pc.Err() == nil {
		pc := p.pc
		p.mu.Unlock()
		return pc, nil
	}
	if p.dialFails > 0 && time.Now().Before(p.nextDial) {
		err := p.dialErr
		p.mu.Unlock()
		return nil, fmt.Errorf("rank %d (%s) backing off: %w: %w", p.rank, p.addr, proto.ErrConnLost, err)
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
		return nil, fmt.Errorf("rank %d (%s): %w: %w", p.rank, p.addr, proto.ErrConnLost, err)
	}
	p.mu.Lock()
	if p.shutdown {
		p.mu.Unlock()
		pc.Fail(proto.ErrConnLost)
		return nil, proto.ErrConnLost
	}
	p.dialFails = 0
	p.dialErr = nil
	if p.pc != nil && p.pc.Err() == nil {
		// Lost the dial race; use the established connection.
		won := p.pc
		p.mu.Unlock()
		pc.Fail(proto.ErrConnLost)
		return won, nil
	}
	p.pc = pc
	p.mu.Unlock()
	return pc, nil
}

// close permanently tears the peer down: the current connection's in-flight
// calls fail, and later conn() calls return proto.ErrConnLost instead of
// redialing (Shutdown relies on this to force stuck routes to finish).
func (p *peer) close() {
	p.mu.Lock()
	p.shutdown = true
	pc := p.pc
	p.pc = nil
	p.mu.Unlock()
	if pc != nil {
		pc.Fail(proto.ErrConnLost)
	}
}

// call issues one request on the peer's connection, bounded by timeout so a
// wedged peer cannot pin a router goroutine. A KindError answer becomes a
// non-transport error: the peer is alive, it just refused. Returned offsets
// are 0-based.
func (p *peer) call(timeout time.Duration, encode func(b []byte, id uint64) []byte) (proto.Result, error) {
	pc, err := p.conn()
	if err != nil {
		return proto.Result{}, err
	}
	res := pc.Call(timeout, encode)
	if res.Err == nil && res.Kind == proto.KindError {
		res.Err = fmt.Errorf("server: peer: %s", res.ErrMsg)
	}
	return res, res.Err
}

// forwardShardKNN forwards whole queries to a holder of shard, which runs
// the owner pipeline (local KNN + remote exchange) on its copy of that shard
// and answers final per-query neighbor lists. A non-nil tc rides the trace
// id on the request and collects the spans the peer answers with.
func (p *peer) forwardShardKNN(shard int, coords []float32, k, dims int, tc *traceCtx) ([]panda.Neighbor, []int32, error) {
	res, err := p.call(p.callTimeout, func(b []byte, id uint64) []byte {
		return tc.appendTrailer(proto.AppendShardKNNRequest(b, id, shard, k, coords, dims))
	})
	tc.addRemote(res.Spans)
	return res.Flat, res.Offsets, err
}

// shardRemoteKNN asks the peer for shard's candidates strictly within r2 of
// q (§III-B step 4), answered from the peer's copy of that shard.
func (p *peer) shardRemoteKNN(shard int, q []float32, k int, r2 float32, tc *traceCtx) ([]panda.Neighbor, error) {
	res, err := p.call(p.callTimeout, func(b []byte, id uint64) []byte {
		return tc.appendTrailer(proto.AppendShardRemoteKNNRequest(b, id, shard, k, r2, q))
	})
	tc.addRemote(res.Spans)
	return res.Flat, err
}

// shardRadius asks the peer for shard's points within r2 of q, answered
// from the peer's copy of that shard.
func (p *peer) shardRadius(shard int, q []float32, r2 float32, tc *traceCtx) ([]panda.Neighbor, error) {
	res, err := p.call(p.callTimeout, func(b []byte, id uint64) []byte {
		return tc.appendTrailer(proto.AppendShardRadiusRequest(b, id, shard, r2, q))
	})
	tc.addRemote(res.Spans)
	return res.Flat, err
}

// ping round-trips a KindPing through the peer's reader (the health loop's
// probe). timeout bounds the whole call.
func (p *peer) ping(timeout time.Duration) error {
	_, err := p.call(timeout, func(b []byte, id uint64) []byte {
		return proto.AppendPingRequest(b, id)
	})
	return err
}

// fetchSection asks the peer for one chunk of shard's snapshot file
// starting at off (the re-replication transport). The returned data is
// owned by the caller; crc is the peer-computed crc32c the Assembler
// re-verifies.
func (p *peer) fetchSection(shard int, off uint64, maxLen int) (data []byte, fileSize uint64, crc uint32, err error) {
	res, err := p.call(p.callTimeout, func(b []byte, id uint64) []byte {
		return proto.AppendFetchSectionRequest(b, id, shard, off, maxLen)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if res.Shard != shard {
		return nil, 0, 0, fmt.Errorf("server: peer answered section of shard %d, asked for %d", res.Shard, shard)
	}
	return res.Data, res.FileSize, res.ChunkCRC, nil
}

// dialPeer connects and handshakes, binding the default tenant: peers are
// ranks of the same cluster, which serve exactly one dataset. With dims >= 0
// the peer must serve a tree of that dimensionality (all shards of one
// cluster do); dims < 0 skips the check — used by the join fetcher, which
// learns the cluster's dimensionality from the welcome.
func dialPeer(addr string, dims int, timeout time.Duration) (*proto.Conn, error) {
	pc, err := proto.Dial(addr, "", timeout)
	if err != nil || dims < 0 || pc.ID.Dims == dims {
		return pc, err
	}
	err = fmt.Errorf("peer serves %d-dim tree, want %d", pc.ID.Dims, dims)
	pc.Fail(err)
	return nil, err
}
