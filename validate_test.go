package panda

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

// TestNonFiniteQueryRejected covers every public query entry point against
// NaN/±Inf inputs: a NaN coordinate makes every pruning comparison in the
// kd-tree kernels false, so before these guards the tree silently returned
// wrong or empty results.
func TestNonFiniteQueryRejected(t *testing.T) {
	coords := []float32{
		0, 0, 0,
		1, 0, 0,
		0, 1, 0,
		1, 1, 1,
	}
	tree, err := Build(coords, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	bads := [][]float32{
		{nan, 0, 0},
		{0, inf, 0},
		{0, 0, float32(math.Inf(-1))},
	}
	for _, q := range bads {
		if got := tree.KNN(q, 2); got != nil {
			t.Fatalf("KNN(%v) = %v, want nil", q, got)
		}
		if got := tree.KNNInto(q, 2, nil); got != nil {
			t.Fatalf("KNNInto(%v) = %v, want nil", q, got)
		}
		if got := tree.RadiusSearch(q, 1); got != nil {
			t.Fatalf("RadiusSearch(%v) = %v, want nil", q, got)
		}
		if got := tree.CountWithin(q, 1); got != 0 {
			t.Fatalf("CountWithin(%v) = %d, want 0", q, got)
		}
		if got := tree.KNNBoundedInto(q, 2, 1, nil); got != nil {
			t.Fatalf("KNNBoundedInto(%v) = %v, want nil", q, got)
		}
		if _, _, err := tree.KNNBatchFlat(q, 2); err == nil {
			t.Fatalf("KNNBatchFlat(%v) accepted", q)
		}
		if _, err := tree.KNNBatch(q, 2); err == nil {
			t.Fatalf("KNNBatch(%v) accepted", q)
		}
	}
	// Non-finite radii are rejected too (a NaN r2 disables radius pruning
	// the same way).
	if got := tree.RadiusSearch([]float32{0, 0, 0}, nan); got != nil {
		t.Fatalf("RadiusSearch(r2=NaN) = %v, want nil", got)
	}
	if got := tree.RadiusSearchInto([]float32{0, 0, 0}, inf, nil); got != nil {
		t.Fatalf("RadiusSearchInto(r2=+Inf) = %v, want nil", got)
	}
	if got := tree.CountWithin([]float32{0, 0, 0}, nan); got != 0 {
		t.Fatalf("CountWithin(r2=NaN) = %d, want 0", got)
	}

	// A batch with one NaN query among valid ones is rejected whole.
	batch := []float32{0.5, 0.5, 0.5, nan, 0.5, 0.5}
	if _, err := tree.KNNBatch(batch, 2); err == nil {
		t.Fatal("batch containing a NaN query accepted")
	}

	// Valid queries still work (the guard is not over-broad), including
	// r2 = MaxFloat32, the engine's own "unbounded" sentinel.
	if got := tree.KNN([]float32{0, 0, 0}, 2); len(got) != 2 {
		t.Fatalf("valid KNN returned %v", got)
	}
	if got := tree.RadiusSearch([]float32{0, 0, 0}, math.MaxFloat32); len(got) != 4 {
		t.Fatalf("RadiusSearch(r2=MaxFloat32) returned %d results, want 4", len(got))
	}
	if got := tree.KNNBoundedInto([]float32{0, 0, 0}, 2, math.MaxFloat32, nil); len(got) != 2 {
		t.Fatalf("KNNBoundedInto(r2=MaxFloat32) returned %v", got)
	}
}

// TestBuildNonFiniteRejected: Build refuses NaN and ±Inf coordinates. Such
// a point fits no finite box, so the tree's snapshot would be unreadable
// (OpenSnapshot rejects non-finite boxes) and its queries unprunable.
func TestBuildNonFiniteRejected(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		coords := []float32{
			0, 0, 0,
			1, 0, 0,
			0, 1, 0,
			1, 1, 1,
		}
		coords[7] = bad
		if tree, err := Build(coords, 3, nil, nil); err == nil {
			t.Fatalf("Build accepted coordinate %v (tree of %d points)", bad, tree.Len())
		}
	}
}

// TestNodeBuildNonFiniteRejected: the distributed build checks finiteness
// collectively. Only rank 0's shard holds a NaN, yet both ranks must return
// the same error naming rank 0, and neither may block waiting for the other
// — on the in-process cluster and on a real 2-rank TCP mesh.
func TestNodeBuildNonFiniteRejected(t *testing.T) {
	for _, mesh := range []struct {
		name string
		run  func(fn func(n *Node) error) error
	}{
		{"RunCluster", func(fn func(n *Node) error) error {
			_, err := RunCluster(2, 1, fn)
			return err
		}},
		{"JoinTCPListener", runTCPMesh2},
	} {
		t.Run(mesh.name, func(t *testing.T) {
			errs := make([]error, 2)
			done := make(chan error, 1)
			go func() {
				done <- mesh.run(func(n *Node) error {
					coords := make([]float32, 60)
					for i := range coords {
						coords[i] = float32(i%10) * 0.1
					}
					if n.Rank() == 0 {
						coords[7] = float32(math.NaN())
					}
					_, errs[n.Rank()] = n.Build(coords, 3, nil, nil)
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("distributed build with a NaN shard did not return")
			}
			if errs[0] == nil || errs[1] == nil {
				t.Fatalf("distributed build accepted a NaN shard: rank errors %v, %v", errs[0], errs[1])
			}
			if errs[0].Error() != errs[1].Error() {
				t.Fatalf("ranks disagree: %q vs %q", errs[0], errs[1])
			}
			if !strings.Contains(errs[0].Error(), "ranks [0]") {
				t.Fatalf("error %q does not name rank 0", errs[0])
			}
		})
	}
}

// runTCPMesh2 runs fn on both ranks of a 2-rank JoinTCPListener mesh over
// loopback and returns the first error.
func runTCPMesh2(fn func(n *Node) error) error {
	const p = 2
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	errc := make(chan error, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			node, closeFn, err := JoinTCPListener(r, lns[r], addrs, 1)
			if err != nil {
				errc <- err
				return
			}
			defer closeFn()
			errc <- fn(node)
		}(r)
	}
	var first error
	for r := 0; r < p; r++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TestDistQueryNonFiniteRejected: the SPMD distributed query path validates
// too — a NaN query would otherwise be mis-routed by the global tree and
// silently searched with pruning disabled. Crucially the rejection is
// collective: when only ONE rank's shard carries the NaN, every rank must
// return the error in lockstep instead of the clean ranks deadlocking in
// the query collectives.
func TestDistQueryNonFiniteRejected(t *testing.T) {
	_, err := RunCluster(2, 1, func(n *Node) error {
		coords := make([]float32, 60)
		for i := range coords {
			coords[i] = float32(i%10) * 0.1
		}
		dt, err := n.Build(coords, 3, nil, nil)
		if err != nil {
			return err
		}
		// Only rank 0 queries with a NaN; rank 1's queries are valid.
		q := []float32{0.5, 0.5, 0.5}
		if n.Rank() == 0 {
			q[1] = float32(math.NaN())
		}
		if _, _, err := dt.Query(q, nil, 2); err == nil {
			t.Errorf("rank %d: distributed Query accepted a NaN wave", n.Rank())
		}
		// The cluster must still be usable for a valid wave afterwards.
		res, _, err := dt.Query([]float32{0.1, 0.2, 0.3}, nil, 2)
		if err != nil {
			return err
		}
		if len(res) != 1 || len(res[0].Neighbors) != 2 {
			t.Errorf("rank %d: valid wave after rejection returned %v", n.Rank(), res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
