package server

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda/internal/proto"
)

// TestHealthTrackerFailSaturatesAtThreshold is the regression test for the
// unbounded failure counter: fail() must saturate exactly at the threshold
// (the pre-fix counter ran to 1<<20 before clamping, so a long-dead rank
// needed up to a million successes' worth of headroom before blind resets
// stopped stomping them). The invariant fails ∈ [0, thresh] must hold after
// any call sequence.
func TestHealthTrackerFailSaturatesAtThreshold(t *testing.T) {
	h := newHealthTracker(3, 0, 2)
	for i := 0; i < 100; i++ {
		h.fail(1)
	}
	if f := h.fails[1].Load(); f > h.thresh {
		t.Fatalf("after 100 failures the counter is %d, want saturation at thresh=%d", f, h.thresh)
	}
	if h.live(1) {
		t.Fatal("rank 1 live after 100 failures")
	}
	// One success fully revives, no matter how long the rank was dead.
	h.ok(1)
	if !h.live(1) {
		t.Fatal("a success did not revive a long-dead rank")
	}
	// And the next single failure leaves it live again (counter restarted
	// from zero, not from some stale saturated value).
	h.fail(1)
	if !h.live(1) {
		t.Fatal("one failure after a revival marked the rank dead (thresh=2)")
	}
}

// TestHealthTrackerConcurrentOkFail races ok() against fail() under the
// race detector and checks the fix's guarantee: a concurrent success always
// wins — fail() never reinstates a (nearly) dead state over ok()'s reset,
// and the counter never leaves [0, thresh]. The pre-fix blind
// Add(1)/Store(thresh) pair both overshoots the range and can overwrite a
// reset that landed between its load and store.
func TestHealthTrackerConcurrentOkFail(t *testing.T) {
	const (
		ranks   = 4
		workers = 4
		iters   = 2000
	)
	h := newHealthTracker(ranks, 0, 3)
	stop := make(chan struct{})
	var violated atomic.Int32

	// Checker: the invariant must hold at every observable instant.
	var checkWG sync.WaitGroup
	checkWG.Add(1)
	go func() {
		defer checkWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for r := 1; r < ranks; r++ {
				if f := h.fails[r].Load(); f < 0 || f > h.thresh {
					violated.Store(f)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r := 1 + (i+w)%(ranks-1)
				if (i+w)%3 == 0 {
					h.ok(r)
				} else {
					h.fail(r)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	checkWG.Wait()
	if v := violated.Load(); v != 0 {
		t.Fatalf("failure counter left [0, thresh]: observed %d (thresh %d)", v, h.thresh)
	}
	// Quiesce with one success per rank: every rank must be live afterwards
	// — no stale saturated value survives a reset.
	for r := 1; r < ranks; r++ {
		h.ok(r)
		if !h.live(r) {
			t.Fatalf("rank %d dead after a final success", r)
		}
	}
}

// startFakePeer serves the protocol handshake for a dims-dimensional tree,
// then hands each connection to serve.
func startFakePeer(t *testing.T, dims int, serve func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				if _, err := proto.ReadHello(nc); err != nil {
					return
				}
				if _, err := nc.Write(proto.AppendWelcome(nil, proto.DatasetID{Name: proto.DefaultDataset, Dims: dims, Points: 1, Fingerprint: 1})); err != nil {
					return
				}
				serve(nc)
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// TestHeartbeatDetectsDeadPeerDespiteWedgedPeer is the regression test for
// the sequential heartbeat sweep: with peers pinged one after another, a
// single wedged peer (accepts, handshakes, never answers) delayed every
// later peer's probe by a full ping timeout per sweep, so detecting a plain
// dead rank took thresh × (pingTimeout + interval) instead of
// thresh × interval. With concurrent pings the wedged peer costs its own
// goroutine the timeout and nobody else anything.
func TestHeartbeatDetectsDeadPeerDespiteWedgedPeer(t *testing.T) {
	const (
		dims        = 3
		hbInterval  = 50 * time.Millisecond
		pingTimeout = 600 * time.Millisecond
		thresh      = 2
	)
	// The wedged peer serves the handshake and then reads and discards
	// everything without ever answering — the shape of a wedged process
	// (socket open, application dead). Completing the handshake matters: a
	// refused or hung dial would arm the peer's dial backoff and make
	// subsequent pings fail fast, hiding the cost this test needs each ping
	// to pay.
	wedgedAddr := startFakePeer(t, dims, func(nc net.Conn) { io.Copy(io.Discard, nc) })

	// A dead peer: nothing listens on this port (grab one and close it).
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	mk := func(rank int, addr string) *peer {
		return &peer{
			rank:        rank,
			addr:        addr,
			dims:        dims,
			dialTimeout: pingTimeout,
			callTimeout: pingTimeout,
		}
	}
	rt := &router{
		s:           &Server{},
		rank:        0,
		peers:       []*peer{nil, mk(1, wedgedAddr), mk(2, deadAddr)},
		health:      newHealthTracker(3, 0, thresh),
		hbInterval:  hbInterval,
		pingTimeout: pingTimeout,
		hbStop:      make(chan struct{}),
	}
	t.Cleanup(rt.closePeers)
	go rt.heartbeatLoop(rt.hbStop)

	// The dead rank must be detected within a few thresh×interval periods.
	// The sequential sweep cannot make this: each of the thresh sweeps stalls
	// ~pingTimeout on the wedged peer first, pushing detection past 1.2s.
	const detectBudget = thresh*hbInterval + 400*time.Millisecond
	deadline := time.Now().Add(detectBudget)
	for rt.health.live(2) {
		if time.Now().After(deadline) {
			t.Fatalf("dead rank not detected within %v: a wedged peer must not delay other ranks' heartbeats", detectBudget)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The wedged peer is eventually detected too (each of its pings times
	// out), proving timeouts count against the right rank.
	deadline = time.Now().Add(thresh*(pingTimeout+hbInterval) + 2*time.Second)
	for rt.health.live(1) {
		if time.Now().After(deadline) {
			t.Fatal("wedged rank never detected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPeerMalformedResponseCountsAsFailure: a peer that answers with frames
// that do not decode is as broken as a dead one — its calls fail with a
// transport error, which counts in PeerFailures and against its health.
func TestPeerMalformedResponseCountsAsFailure(t *testing.T) {
	const dims = 3
	garbler := startFakePeer(t, dims, func(nc net.Conn) {
		for {
			payload, err := proto.ReadFrame(nc, nil)
			if err != nil {
				return
			}
			out := proto.BeginFrame(nil)
			out = append(out, 0xee) // unknown response kind
			out = append(out, payload[1:9]...)
			if proto.FinishFrame(out, 0) != nil {
				return
			}
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	})
	tree, _ := testTree(t, 100, dims)
	rt := &router{
		s:           New(tree, Config{}),
		rank:        0,
		peers:       []*peer{nil, {rank: 1, addr: garbler, dims: dims, dialTimeout: time.Second, callTimeout: time.Second}},
		health:      newHealthTracker(2, 0, 1),
		hbInterval:  20 * time.Millisecond,
		pingTimeout: time.Second,
		hbStop:      make(chan struct{}),
	}
	t.Cleanup(rt.closePeers)
	go rt.heartbeatLoop(rt.hbStop)

	waitUntil(t, "a peer failure from a malformed response", func() bool { return rt.s.Stats().PeerFailures > 0 })
	if rt.health.live(1) {
		t.Fatal("a peer answering malformed frames is still live")
	}
}
