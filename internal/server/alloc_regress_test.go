//go:build !race

// The dispatch-loop allocation regression lives behind !race: the race
// detector's instrumentation allocates on its own and would drown the
// 0-allocs/query signal.

package server

import (
	"testing"
	"time"

	"panda/internal/proto"
)

// TestDispatchLoopAllocs measures the server's steady-state dispatch path —
// intake batch → grouped engine call → encoded, flushed and observed
// responses — and requires amortized zero allocations per query once warm,
// and one write per round for the round's one connection.
func TestDispatchLoopAllocs(t *testing.T) {
	const (
		dims  = 3
		batch = 64
		k     = 8
	)
	tree, coords := testTree(t, 4000, dims)
	s := New(tree, Config{})
	d := newDispatcher(s)
	sink := &sinkConn{}
	fake := &conn{nc: sink}

	fill := func() {
		d.batch = d.batch[:0]
		for i := 0; i < batch; i++ {
			p := s.getPending()
			fake.unanswered.Add(1) // handed on, as the reader does
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
	sink.writes = 0
	allocs := testing.AllocsPerRun(50, func() {
		fill()
		d.process()
	})
	if perQuery := allocs / batch; perQuery > 0.01 {
		t.Fatalf("%v allocations per query (%.1f per batch), want amortized 0", perQuery, allocs)
	}
	// AllocsPerRun runs the function once more to warm up.
	if sink.writes != 51 {
		t.Fatalf("%d writes for 51 rounds of %d responses on one connection, want one per round", sink.writes, batch)
	}
}
