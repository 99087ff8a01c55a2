//go:build !race

// The dispatch-loop allocation regression lives behind !race: the race
// detector's instrumentation allocates on its own and would drown the
// 0-allocs/query signal.

package server

import (
	"net"
	"testing"
	"time"

	"panda/internal/proto"
)

// sinkConn is a no-op net.Conn for measuring the dispatch loop alone.
type sinkConn struct{}

func (sinkConn) Read(b []byte) (int, error)         { return 0, net.ErrClosed }
func (sinkConn) Write(b []byte) (int, error)        { return len(b), nil }
func (sinkConn) Close() error                       { return nil }
func (sinkConn) LocalAddr() net.Addr                { return nil }
func (sinkConn) RemoteAddr() net.Addr               { return nil }
func (sinkConn) SetDeadline(t time.Time) error      { return nil }
func (sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (sinkConn) SetWriteDeadline(t time.Time) error { return nil }

// TestDispatchLoopAllocs measures the server's steady-state dispatch path —
// intake batch → grouped engine call → encoded, written and observed
// responses — and requires
// amortized zero allocations per query once warm.
func TestDispatchLoopAllocs(t *testing.T) {
	const (
		dims  = 3
		batch = 64
		k     = 8
	)
	tree, coords := testTree(t, 4000, dims)
	s := New(tree, Config{})
	d := newDispatcher(s)
	fake := &conn{nc: sinkConn{}}

	fill := func() {
		d.batch = d.batch[:0]
		for i := 0; i < batch; i++ {
			p := s.getPending()
			p.c = fake
			p.eng = s.def
			p.tree = s.def.shards[0].Load()
			p.req.Kind = proto.KindKNN
			p.req.ID = uint64(i)
			p.req.K = k
			p.req.NQ = 1
			p.req.Coords = append(p.req.Coords[:0], coords[i*dims:(i+1)*dims]...)
			// Stamped like the reader and the dispatch loop do, so every
			// response is observed.
			p.decodeStart = time.Now()
			p.arrived = time.Now()
			p.dequeue()
			d.batch = append(d.batch, p)
		}
	}
	// Warm every pool: pendings, searchers, arenas, encode buffers.
	for i := 0; i < 3; i++ {
		fill()
		d.process()
	}
	allocs := testing.AllocsPerRun(50, func() {
		fill()
		d.process()
	})
	if perQuery := allocs / batch; perQuery > 0.01 {
		t.Fatalf("%v allocations per query (%.1f per batch), want amortized 0", perQuery, allocs)
	}
}
