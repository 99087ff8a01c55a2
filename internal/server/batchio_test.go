package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda"
	"panda/internal/proto"
)

// countingListener wraps every accepted connection so a test can count the
// Write calls the server makes on it.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

type countingConn struct {
	net.Conn
	writes   atomic.Int64
	maxWrite atomic.Int64 // largest single Write, in bytes
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	for m := c.maxWrite.Load(); int64(len(b)) > m && !c.maxWrite.CompareAndSwap(m, int64(len(b))); m = c.maxWrite.Load() {
	}
	return c.Conn.Write(b)
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: nc}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *countingListener) accepted() []*countingConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*countingConn(nil), l.conns...)
}

// sinkConn is a no-op net.Conn for measuring the dispatch loop alone; it
// counts the writes it absorbs.
type sinkConn struct{ writes int }

func (*sinkConn) Read(b []byte) (int, error)         { return 0, net.ErrClosed }
func (s *sinkConn) Write(b []byte) (int, error)      { s.writes++; return len(b), nil }
func (*sinkConn) Close() error                       { return nil }
func (*sinkConn) LocalAddr() net.Addr                { return nil }
func (*sinkConn) RemoteAddr() net.Addr               { return nil }
func (*sinkConn) SetDeadline(t time.Time) error      { return nil }
func (*sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (*sinkConn) SetWriteDeadline(t time.Time) error { return nil }

// startCountedHeldServer starts a server held before its first round on a
// countingListener and dials nconns clients to it (cleanup closes them and
// releases the hold).
func startCountedHeldServer(t *testing.T, tree *panda.Tree, nconns int) (*Server, *countingListener, []*panda.Client, func()) {
	t.Helper()
	srv := New(tree, Config{})
	srv.hold = make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	addr := serveOn(t, srv, cl)
	var once sync.Once
	release := func() { once.Do(func() { close(srv.hold) }) }
	t.Cleanup(release)
	clients := make([]*panda.Client, nconns)
	for i := range clients {
		c, err := panda.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	waitUntil(t, "accepted connections", func() bool { return len(cl.accepted()) == nconns })
	return srv, cl, clients, release
}

// TestOneWritePerConnectionPerRound queues a KNN k=8 / k=32 / radius mix
// from two connections behind the held dispatcher, releases it, and
// requires that the round answers each connection with exactly one write,
// every answer bit-identical to Tree.KNN / Tree.RadiusSearch.
func TestOneWritePerConnectionPerRound(t *testing.T) {
	const (
		dims    = 3
		perConn = 12 // 4 × k=8, 4 × k=32, 4 × radius; 24 queries < MaxBatch
	)
	tree, coords := testTree(t, 4000, dims)
	srv, cl, clients, release := startCountedHeldServer(t, tree, 2)
	before := make([]int64, 2)
	for i, cc := range cl.accepted() {
		before[i] = cc.writes.Load() // the welcome
	}

	errs := make(chan error, 2*perConn)
	for ci, c := range clients {
		for j := 0; j < perConn; j++ {
			go func(c *panda.Client, i, j int) {
				q := coords[i*dims : (i+1)*dims]
				var got, want []panda.Neighbor
				var err error
				switch j % 3 {
				case 0, 1:
					k := 8 + 24*(j%3) // k=8 or k=32
					want = tree.KNN(q, k)
					got, err = c.KNN(q, k)
				case 2:
					r2 := tree.KNN(q, 16)[15].Dist2
					want = tree.RadiusSearch(q, r2)
					got, err = c.RadiusSearch(q, r2)
				}
				if err == nil && !sameNeighbors(got, want) {
					err = fmt.Errorf("query %d (kind %d): answer differs from the tree", i, j%3)
				}
				errs <- err
			}(c, ci*perConn+j, j)
		}
	}
	waitUntil(t, "queued requests", func() bool { return len(srv.intake) == 2*perConn })
	batches := srv.Stats().Batches
	release()
	for i := 0; i < 2*perConn; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().Batches - batches; got != 1 {
		t.Fatalf("%d queued queries took %d dispatch rounds, want 1", 2*perConn, got)
	}
	for i, cc := range cl.accepted() {
		if got := cc.writes.Load() - before[i]; got != 1 {
			t.Errorf("connection %d: %d response writes for one round of %d answers, want 1", i, got, perConn)
		}
	}
}

// TestLargeAnswersFlushBounded holds a round of large radius answers on one
// connection: every answer must be bit-identical to Tree.RadiusSearch, and
// the round must flush early instead of staging it whole, so no write
// exceeds flushBytes plus one frame.
func TestLargeAnswersFlushBounded(t *testing.T) {
	const (
		dims = 3
		nq   = 6    // radius queries in the round
		ball = 6000 // points per answer: a 72 KB frame
	)
	tree, coords := testTree(t, 20000, dims)
	srv, cl, clients, release := startCountedHeldServer(t, tree, 1)
	cc := cl.accepted()[0]
	before := cc.writes.Load() // the welcome

	errs := make(chan error, nq)
	largest := 0
	for i := 0; i < nq; i++ {
		q := coords[i*dims : (i+1)*dims]
		r2 := tree.KNN(q, ball)[ball-1].Dist2
		want := tree.RadiusSearch(q, r2)
		largest = max(largest, len(want))
		go func() {
			got, err := clients[0].RadiusSearch(q, r2)
			if err == nil && !sameNeighbors(got, want) {
				err = fmt.Errorf("radius query %d: answer differs from Tree.RadiusSearch", i)
			}
			errs <- err
		}()
	}
	waitUntil(t, "queued requests", func() bool { return len(srv.intake) == nq })
	batches := srv.Stats().Batches
	release()
	for i := 0; i < nq; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().Batches - batches; got != 1 {
		t.Fatalf("%d queued queries took %d dispatch rounds, want 1", nq, got)
	}
	if got := cc.writes.Load() - before; got < 2 {
		t.Errorf("%d writes for %d answers of about %d KB, want an early flush", got, nq, 12*ball/1000)
	}
	if limit := int64(flushBytes + 4 + 21 + 12*largest); cc.maxWrite.Load() > limit {
		t.Errorf("a %d-byte write, want at most flushBytes plus one frame (%d)", cc.maxWrite.Load(), limit)
	}
}

// TestOutboxDropsOversizeBuffers stages frames whose sum passes flushBytes:
// the outbox must flush early and keep no buffer grown past flushBytes.
func TestOutboxDropsOversizeBuffers(t *testing.T) {
	tree, _ := testTree(t, 100, 3)
	s := New(tree, Config{})
	sink := &sinkConn{}
	c := &conn{nc: sink}
	var o outbox
	big := make([]byte, flushBytes/2+1)
	for i := 0; i < 3; i++ {
		p := s.getPending()
		p.c, p.eng = c, s.def
		c.unanswered.Add(1) // handed on, as the reader does
		s.stage(&o, p, time.Now(), nil, func(b []byte) []byte { return append(b, big...) })
	}
	s.flush(&o)
	if sink.writes != 2 {
		t.Errorf("%d writes for three half-flushBytes frames, want 2 (one early flush)", sink.writes)
	}
	for i, b := range o.bufs {
		if cap(b) > flushBytes {
			t.Errorf("staging buffer %d keeps %d bytes, want at most %d", i, cap(b), flushBytes)
		}
	}
}

// TestAdmissionReleasedBeforeFlush holds MaxInFlight single queries on one
// connection, releases them, and sends a new query the moment each answer
// arrives: admission is released before the round's write, so none of the
// follow-ups may be shed.
func TestAdmissionReleasedBeforeFlush(t *testing.T) {
	const (
		dims = 3
		n    = 8
		k    = 5
	)
	tree, coords := testTree(t, 2000, dims)
	srv, addr, release := startHeldServer(t, tree, Config{MaxInFlight: n})
	c, err := panda.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			for _, qi := range []int{i, n + i} {
				q := coords[qi*dims : (qi+1)*dims]
				got, err := c.KNN(q, k)
				if err == nil && !sameNeighbors(got, tree.KNN(q, k)) {
					err = fmt.Errorf("query %d: answer differs from Tree.KNN", qi)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	waitUntil(t, "held queries", func() bool { return len(srv.intake) == n })
	release()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if shed := srv.Stats().Shed; shed != 0 {
		t.Fatalf("%d follow-up queries shed, want 0", shed)
	}
}

// readResponses reads response frames off nc, keyed by request id, until
// it has n of them (n > 0) or a read fails.
func readResponses(t *testing.T, nc net.Conn, n int) (map[uint64]proto.Response, error) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := map[uint64]proto.Response{}
	for n <= 0 || len(out) < n {
		payload, err := proto.ReadFrame(nc, nil)
		if err != nil {
			return out, err
		}
		var resp proto.Response
		if err := proto.ConsumeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
		resp.Offsets = append([]int32(nil), resp.Offsets...)
		resp.Flat = append([]panda.Neighbor(nil), resp.Flat...)
		out[resp.ID] = resp
	}
	return out, nil
}

// TestBufferedFraming writes many request frames in a single Write — small
// ones, one straddling the 4 KiB read-buffer boundary and a batch frame
// larger than the buffer — and requires every answer bit-identical to the
// tree. A malformed frame later in the same segment must close the
// connection, after every earlier frame has been answered.
func TestBufferedFraming(t *testing.T) {
	const (
		dims  = 3
		k     = 4
		bigNQ = 400 // a 4.8 KB frame
	)
	tree, coords := testTree(t, 4000, dims)
	_, addr := startServer(t, tree, Config{})

	// The segment: enough single-query frames that one straddles byte 4096,
	// then the big batch, then a few more single queries.
	var seg []byte
	frames := 0
	add := func(q []float32) {
		start := len(seg)
		seg = proto.AppendKNNRequest(proto.BeginFrame(seg), uint64(frames), k, q, dims)
		if err := proto.FinishFrame(seg, start); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	for len(seg) < 4096+64 {
		add(coords[frames*dims : (frames+1)*dims])
	}
	add(coords[:bigNQ*dims])
	for i := 0; i < 5; i++ {
		add(coords[(500+i)*dims : (501+i)*dims])
	}
	check := func(t *testing.T, got map[uint64]proto.Response) {
		t.Helper()
		if len(got) != frames {
			t.Fatalf("%d responses, want %d", len(got), frames)
		}
		// Re-decode the segment to recover each id's queries.
		var req proto.Request
		for r := bytes.NewReader(seg); r.Len() > 0; {
			payload, err := proto.ReadFrame(r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := proto.ConsumeRequest(payload, dims, &req); err != nil {
				t.Fatal(err)
			}
			resp, ok := got[req.ID]
			if !ok || resp.Kind != proto.KindNeighbors || len(resp.Offsets) != req.NQ+1 {
				t.Fatalf("request %d (%d queries): answered %v, kind %d, %d offsets", req.ID, req.NQ, ok, resp.Kind, len(resp.Offsets))
			}
			for i := 0; i < req.NQ; i++ {
				q := req.Coords[i*dims : (i+1)*dims]
				if !sameNeighbors(resp.Flat[resp.Offsets[i]:resp.Offsets[i+1]], tree.KNN(q, k)) {
					t.Fatalf("request %d query %d: answer differs from Tree.KNN", req.ID, i)
				}
			}
		}
	}

	straddles := false
	for off := 0; off < len(seg); {
		n := 4 + int(binary.LittleEndian.Uint32(seg[off:]))
		straddles = straddles || (off < 4096 && off+n > 4096)
		off += n
	}
	if !straddles {
		t.Fatal("no frame straddles byte 4096")
	}

	t.Run("valid", func(t *testing.T) {
		nc := rawDial(t, addr)
		defer nc.Close()
		if _, err := nc.Write(seg); err != nil {
			t.Fatal(err)
		}
		got, err := readResponses(t, nc, frames)
		if err != nil {
			t.Fatalf("after %d of %d responses: %v", len(got), frames, err)
		}
		check(t, got)
	})

	t.Run("malformed_tail", func(t *testing.T) {
		nc := rawDial(t, addr)
		defer nc.Close()
		// A frame too short to carry a request id: unrecoverable framing.
		bad := append(proto.BeginFrame(nil), 0xFF, 0xFF)
		if err := proto.FinishFrame(bad, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(append(append([]byte(nil), seg...), bad...)); err != nil {
			t.Fatal(err)
		}
		got, err := readResponses(t, nc, 0)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("connection not closed after the malformed frame: %v", err)
		}
		check(t, got)
	})
}
