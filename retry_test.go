package panda

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda/internal/proto"
)

// fakeServer speaks just enough of the wire protocol to impersonate a panda
// server with an arbitrary dataset shape: it answers the handshake with the
// configured dims/points and answers every query with one neighbor whose ID
// is the server's marker — so a test can tell exactly which server answered
// after a reconnect. scripted, if non-nil, overrides the answer per request
// (in arrival order).
type fakeServer struct {
	ln      net.Listener
	id      proto.DatasetID
	marker  int64
	accepts atomic.Int64

	// scripted answers, consumed per request before falling back to the
	// marker neighbor. Each entry encodes one full response body.
	scripted []func(b []byte, id uint64) []byte
	scriptMu sync.Mutex

	mu    sync.Mutex
	conns []net.Conn
}

func startFakeServer(t *testing.T, dims int, points, marker int64) *fakeServer {
	t.Helper()
	// Derive the fingerprint from the shape so two fakes configured with
	// the same (dims, points) impersonate the same dataset, as replicas of
	// one snapshot would. Impostor tests pass an explicit id instead.
	return startFakeServerID(t, proto.DatasetID{
		Name:        proto.DefaultDataset,
		Dims:        dims,
		Points:      points,
		Fingerprint: uint64(dims)<<32 ^ uint64(points),
	}, marker)
}

func startFakeServerID(t *testing.T, id proto.DatasetID, marker int64) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, id: id, marker: marker}
	t.Cleanup(fs.stop)
	go fs.acceptLoop()
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) stop() {
	fs.ln.Close()
	fs.mu.Lock()
	for _, nc := range fs.conns {
		nc.Close()
	}
	fs.conns = nil
	fs.mu.Unlock()
}

func (fs *fakeServer) acceptLoop() {
	for {
		nc, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.accepts.Add(1)
		fs.mu.Lock()
		fs.conns = append(fs.conns, nc)
		fs.mu.Unlock()
		go fs.serveConn(nc)
	}
}

func (fs *fakeServer) serveConn(nc net.Conn) {
	defer nc.Close()
	if _, err := proto.ReadHello(nc); err != nil {
		return
	}
	if _, err := nc.Write(proto.AppendWelcome(nil, fs.id)); err != nil {
		return
	}
	var buf, out []byte
	var req proto.Request
	for {
		payload, err := proto.ReadFrame(nc, buf)
		if err != nil {
			return
		}
		buf = payload
		if err := proto.ConsumeRequest(payload, fs.id.Dims, &req); err != nil {
			return
		}
		out = proto.BeginFrame(out[:0])
		if enc := fs.nextScripted(); enc != nil {
			out = enc(out, req.ID)
		} else {
			out = proto.AppendNeighborsResponse(out, req.ID, []int32{0, 1}, []Neighbor{{ID: fs.marker}})
		}
		if proto.FinishFrame(out, 0) != nil {
			return
		}
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

func (fs *fakeServer) nextScripted() func(b []byte, id uint64) []byte {
	fs.scriptMu.Lock()
	defer fs.scriptMu.Unlock()
	if len(fs.scripted) == 0 {
		return nil
	}
	enc := fs.scripted[0]
	fs.scripted = fs.scripted[1:]
	return enc
}

func (fs *fakeServer) script(enc ...func(b []byte, id uint64) []byte) {
	fs.scriptMu.Lock()
	fs.scripted = append(fs.scripted, enc...)
	fs.scriptMu.Unlock()
}

// answeredBy issues one KNN query and returns the marker of the server that
// answered it.
func answeredBy(t *testing.T, c *Client, dims int) int64 {
	t.Helper()
	got, err := c.KNN(make([]float32, dims), 1)
	if err != nil {
		t.Fatalf("KNN: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("fake server answered %d neighbors, want 1", len(got))
	}
	return got[0].ID
}

// TestReconnectRefusesDifferentDataset is the regression test for the
// reconnect validation hole: the old reconnect checked only dims against
// the original welcome and threw the point count away, so a redial landing
// on a server with the same dimensionality but a different dataset silently
// switched the client's answers mid-session. The fixed reconnect must skip
// the wrong-dataset address and keep walking the list to a matching one.
func TestReconnectRefusesDifferentDataset(t *testing.T) {
	const dims = 3
	right := startFakeServer(t, dims, 100, 1)
	wrong := startFakeServer(t, dims, 999, 2) // same dims, different dataset
	backup := startFakeServer(t, dims, 100, 3)

	c, err := Dialer{Retry: RetryPolicy{Attempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}}.
		Dial(right.addr(), wrong.addr(), backup.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := answeredBy(t, c, dims); got != 1 {
		t.Fatalf("first query answered by marker %d, want the first-listed server (1)", got)
	}

	right.stop()

	// The reconnect walks [right (dead), wrong (mismatched), backup]. It
	// must refuse the wrong-dataset server even though its dims match, and
	// answer from the backup instead.
	if got := answeredBy(t, c, dims); got != 3 {
		t.Fatalf("query after failover answered by marker %d, want the matching backup (3); "+
			"marker 2 means the client reconnected onto a different dataset", got)
	}
	if c.Len() != 100 {
		t.Fatalf("client's view of the dataset changed to %d points across reconnect, want 100", c.Len())
	}
}

// TestReconnectRefusesSameShapeImpostor is the regression test for the
// residual hole the shape check left open: the pre-fingerprint reconnect
// compared only (dims, points), so a redial landing on a server with a
// dataset of identical shape but different content silently switched the
// client's answers. The dataset id's content fingerprint must tell the two
// apart: the reconnect skips the impostor and lands on the true replica.
func TestReconnectRefusesSameShapeImpostor(t *testing.T) {
	const dims = 3
	right := startFakeServer(t, dims, 100, 1)
	backup := startFakeServer(t, dims, 100, 3)
	impostor := startFakeServerID(t, proto.DatasetID{ // same dims AND points...
		Name:        proto.DefaultDataset,
		Dims:        dims,
		Points:      100,
		Fingerprint: right.id.Fingerprint ^ 0xdeadbeef, // ...different content
	}, 2)

	c, err := Dialer{Retry: RetryPolicy{Attempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}}.
		Dial(right.addr(), impostor.addr(), backup.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := answeredBy(t, c, dims); got != 1 {
		t.Fatalf("first query answered by marker %d, want the first-listed server (1)", got)
	}

	right.stop()

	// The reconnect walks [right (dead), impostor (same shape, wrong
	// fingerprint), backup]. A (dims, points) check cannot distinguish the
	// impostor; the fingerprint must.
	if got := answeredBy(t, c, dims); got != 3 {
		t.Fatalf("query after failover answered by marker %d, want the true replica (3); "+
			"marker 2 means a same-shape impostor passed reconnect validation", got)
	}

	// And when only the impostor remains, fail closed naming the mismatch.
	backup.stop()
	c2, err := Dialer{Retry: RetryPolicy{Attempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond}}.
		Dial(right.addr(), impostor.addr())
	if err == nil {
		// Initial dial binds wherever it can; the impostor is a fine first
		// target. A session bound there must stay there consistently.
		defer c2.Close()
		if got := answeredBy(t, c2, dims); got != 2 {
			t.Fatalf("fresh client answered by marker %d, want the impostor it bound to (2)", got)
		}
	}
	_, err = c.KNN(make([]float32, dims), 1)
	if err == nil {
		t.Fatal("bound client answered with only a different-fingerprint server reachable")
	}
	if !strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("error %v does not name the dataset mismatch", err)
	}
}

// TestReconnectFailsClosedWhenOnlyWrongDatasetRemains: when every reachable
// address serves a mismatched dataset, calls must fail with an error naming
// the mismatch — never silently answer from the wrong data.
func TestReconnectFailsClosedWhenOnlyWrongDatasetRemains(t *testing.T) {
	const dims = 3
	right := startFakeServer(t, dims, 100, 1)
	wrong := startFakeServer(t, dims, 999, 2)

	c, err := Dialer{Retry: RetryPolicy{Attempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond}}.
		Dial(right.addr(), wrong.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := answeredBy(t, c, dims); got != 1 {
		t.Fatalf("first query answered by marker %d, want 1", got)
	}

	right.stop()

	_, err = c.KNN(make([]float32, dims), 1)
	if err == nil {
		t.Fatal("query succeeded with only a wrong-dataset server reachable")
	}
	if !strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("error %v does not name the dataset mismatch", err)
	}
}

// TestRetryOverloadedBacksOffWithoutReconnect pins the client half of
// admission control: an overload refusal is retried (policy opt-in) on the
// SAME connection — the server is healthy, only busy — and succeeds when
// the server has room again. The accept counter proves no redial happened.
func TestRetryOverloadedBacksOffWithoutReconnect(t *testing.T) {
	const dims = 3
	fs := startFakeServer(t, dims, 100, 7)
	fs.script(
		func(b []byte, id uint64) []byte { return proto.AppendOverloadedResponse(b, id) },
		func(b []byte, id uint64) []byte { return proto.AppendOverloadedResponse(b, id) },
	)

	c, err := Dialer{Retry: RetryPolicy{
		Attempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond,
		RetryOverloaded: true,
	}}.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := answeredBy(t, c, dims); got != 7 {
		t.Fatalf("answered by marker %d after overload retries, want 7", got)
	}
	if n := fs.accepts.Load(); n != 1 {
		t.Fatalf("%d connections accepted; overload retries must reuse the healthy connection", n)
	}
}

// TestOverloadSurfacesWithoutOptIn: with RetryOverloaded unset, the refusal
// surfaces immediately as ErrOverloaded — including when the message was
// wrapped by cluster forwarding — so callers can shed load their own way.
func TestOverloadSurfacesWithoutOptIn(t *testing.T) {
	const dims = 3
	fs := startFakeServer(t, dims, 100, 7)
	fs.script(
		func(b []byte, id uint64) []byte {
			// A non-owner rank forwarding to an overloaded owner wraps the
			// message; the sentinel must survive the wrapping.
			return proto.AppendErrorResponse(b, id, "forward shard 2 to rank 1: server: peer: "+proto.OverloadedMsg)
		},
	)
	c, err := Dialer{Retry: RetryPolicy{Attempts: 4, BaseDelay: 5 * time.Millisecond}}.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.KNN(make([]float32, dims), 1)
	if !IsOverloaded(err) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("errors.Is(err, ErrOverloaded) false")
	}
	// Only the one scripted refusal was consumed: no retry happened.
	if got := answeredBy(t, c, dims); got != 7 {
		t.Fatalf("follow-up query answered by marker %d, want 7", got)
	}
}

// TestOversizeBatchLeavesConnectionUsable is the regression test for an
// oversize request killing a shared client: 1.7M 10-D queries at k=1 pass
// the response-cap check, but their request frame exceeds proto.MaxFrame.
// KNNBatch must refuse it up front with a "split the batch" error while
// concurrent KNN calls on the same client all succeed, and the client must
// stay usable afterwards.
func TestOversizeBatchLeavesConnectionUsable(t *testing.T) {
	const (
		dims  = 10
		nq    = 1_700_000
		calls = 2000
	)
	fs := startFakeServer(t, dims, 100, 7)
	c, err := Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	failed := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.KNN(make([]float32, dims), 1); err != nil {
				failed <- err
			}
		}()
	}
	_, berr := c.KNNBatch(make([]float32, nq*dims), 1)
	wg.Wait()
	close(failed)
	if berr == nil || !strings.Contains(berr.Error(), "split the batch") {
		t.Fatalf("oversize KNNBatch: err = %v, want a split-the-batch error", berr)
	}
	n := 0
	for err := range failed {
		if n++; n == 1 {
			t.Errorf("concurrent KNN failed: %v", err)
		}
	}
	if n > 0 {
		t.Fatalf("%d of %d concurrent KNN calls failed", n, calls)
	}
	if got := answeredBy(t, c, dims); got != 7 {
		t.Fatalf("answer after the oversize batch came from marker %d, want 7", got)
	}
}
