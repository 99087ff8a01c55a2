package proto

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"panda/internal/kdtree"
)

// startLoopback listens on a loopback port, answers each connection's
// handshake with a fixed welcome, and hands the connection to serve. The
// listener and every accepted connection close at test cleanup.
func startLoopback(t *testing.T, serve func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			go func() {
				if _, err := ReadHello(nc); err != nil {
					return
				}
				if _, err := nc.Write(AppendWelcome(nil, DatasetID{Name: DefaultDataset, Dims: 2, Points: 1, Fingerprint: 1})); err != nil {
					return
				}
				serve(nc)
			}()
		}
	}()
	return ln.Addr().String()
}

// readID reads one request frame and returns its request id.
func readID(nc net.Conn) (uint64, error) {
	payload, err := ReadFrame(nc, nil)
	if err != nil {
		return 0, err
	}
	var req Request
	if err := ConsumeRequest(payload, 2, &req); err != nil {
		return 0, err
	}
	return req.ID, nil
}

// writeFrame frames and writes one response payload.
func writeFrame(nc net.Conn, encode func(b []byte) []byte) error {
	out := encode(BeginFrame(nil))
	if err := FinishFrame(out, 0); err != nil {
		return err
	}
	_, err := nc.Write(out)
	return err
}

// answerID answers request id with one neighbor whose ID is the request id,
// so a caller can tell which answer it received.
func answerID(nc net.Conn, id uint64) error {
	return writeFrame(nc, func(b []byte) []byte {
		return AppendNeighborsResponse(b, id, []int32{0, 1}, []kdtree.Neighbor{{ID: int64(id)}})
	})
}

func dialLoopback(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr, "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Fail(errors.New("test done")) })
	if c.ID.Dims != 2 {
		t.Fatalf("welcome dims = %d, want 2", c.ID.Dims)
	}
	return c
}

// pingEncoder returns a ping encoder that records the id it was given.
func pingEncoder(id *uint64) func(b []byte, rid uint64) []byte {
	return func(b []byte, rid uint64) []byte {
		*id = rid
		return AppendPingRequest(b, rid)
	}
}

// TestConnPipelinedOutOfOrder: n calls in flight at once on one Conn, which
// the server answers in reverse arrival order — each caller must receive
// the answer to its own request id.
func TestConnPipelinedOutOfOrder(t *testing.T) {
	const n = 16
	addr := startLoopback(t, func(nc net.Conn) {
		ids := make([]uint64, 0, n)
		for len(ids) < n {
			id, err := readID(nc)
			if err != nil {
				return
			}
			ids = append(ids, id)
		}
		for i := n - 1; i >= 0; i-- {
			if answerID(nc, ids[i]) != nil {
				return
			}
		}
	})
	c := dialLoopback(t, addr)

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var id uint64
			res := c.Call(0, pingEncoder(&id))
			switch {
			case res.Err != nil:
				errs <- res.Err
			case len(res.Flat) != 1 || res.Flat[0].ID != int64(id):
				errs <- errors.New("answer routed to the wrong waiter")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConnCallTimeout: a call whose answer is late returns ErrCallTimeout;
// the late answer to the abandoned id is dropped, and the next call on the
// same Conn gets its own answer.
func TestConnCallTimeout(t *testing.T) {
	release := make(chan struct{})
	addr := startLoopback(t, func(nc net.Conn) {
		first, err := readID(nc)
		if err != nil {
			return
		}
		<-release
		if answerID(nc, first) != nil {
			return
		}
		for {
			id, err := readID(nc)
			if err != nil || answerID(nc, id) != nil {
				return
			}
		}
	})
	c := dialLoopback(t, addr)

	var id uint64
	res := c.Call(50*time.Millisecond, pingEncoder(&id))
	if !errors.Is(res.Err, ErrCallTimeout) {
		t.Fatalf("late call: err = %v, want ErrCallTimeout", res.Err)
	}
	close(release)
	res = c.Call(5*time.Second, pingEncoder(&id))
	if res.Err != nil {
		t.Fatalf("call after a timeout: %v", res.Err)
	}
	if len(res.Flat) != 1 || res.Flat[0].ID != int64(id) {
		t.Fatalf("call after a timeout got answer %v, want its own id %d", res.Flat, id)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("a call timeout closed the connection: %v", err)
	}
}

// TestConnWriteDeadline: against a server that stops reading, a call whose
// request cannot fit in the socket buffers must still return within about
// its timeout — the write is deadlined, so it cannot block forever holding
// the write lock.
func TestConnWriteDeadline(t *testing.T) {
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	addr := startLoopback(t, func(nc net.Conn) { <-stop }) // never reads
	c := dialLoopback(t, addr)

	const timeout = 200 * time.Millisecond
	junk := make([]byte, 16<<20) // well past loopback socket buffers
	start := time.Now()
	res := c.Call(timeout, func(b []byte, id uint64) []byte {
		return append(AppendPingRequest(b, id), junk...)
	})
	if elapsed := time.Since(start); elapsed > timeout+2*time.Second {
		t.Fatalf("call took %v against a server that stopped reading, timeout %v", elapsed, timeout)
	}
	if !errors.Is(res.Err, ErrConnLost) && !errors.Is(res.Err, ErrCallTimeout) {
		t.Fatalf("err = %v, want a transport error", res.Err)
	}
}

// TestConnMalformedFrameFailsAll: a response that does not decode fails
// every waiting call and every later call with ErrConnLost.
func TestConnMalformedFrameFailsAll(t *testing.T) {
	const n = 4
	addr := startLoopback(t, func(nc net.Conn) {
		for i := 0; i < n; i++ {
			if _, err := readID(nc); err != nil {
				return
			}
		}
		writeFrame(nc, func(b []byte) []byte { return append(b, 0xee, 1, 2, 3) })
	})
	c := dialLoopback(t, addr)

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var id uint64
			errs[i] = c.Call(0, pingEncoder(&id)).Err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrConnLost) {
			t.Errorf("waiter %d: err = %v, want ErrConnLost", i, err)
		}
	}
	var id uint64
	if err := c.Call(time.Second, pingEncoder(&id)).Err; !errors.Is(err, ErrConnLost) {
		t.Errorf("later call: err = %v, want ErrConnLost", err)
	}
	if !errors.Is(c.Err(), ErrConnLost) {
		t.Errorf("Err() = %v, want ErrConnLost", c.Err())
	}
}

// TestConnFailHandsErrorToCalls: Fail(err) releases a waiting call with err
// and makes every later call return it.
func TestConnFailHandsErrorToCalls(t *testing.T) {
	read, stop := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) })
	addr := startLoopback(t, func(nc net.Conn) {
		if _, err := readID(nc); err != nil {
			return
		}
		close(read)
		<-stop // never answer
	})
	c := dialLoopback(t, addr)

	errX := errors.New("closed by the caller")
	done := make(chan error, 1)
	go func() {
		var id uint64
		done <- c.Call(0, pingEncoder(&id)).Err
	}()
	<-read
	c.Fail(errX)
	if err := <-done; !errors.Is(err, errX) {
		t.Fatalf("waiting call: err = %v, want %v", err, errX)
	}
	var id uint64
	if err := c.Call(time.Second, pingEncoder(&id)).Err; !errors.Is(err, errX) {
		t.Fatalf("later call: err = %v, want %v", err, errX)
	}
	c.Fail(ErrConnLost)
	if err := c.Err(); !errors.Is(err, errX) {
		t.Fatalf("Err() = %v, want the first error %v", err, errX)
	}
}

// TestConnOversizeRequestFailsOnlyItsCall: a request whose encoding exceeds
// MaxFrame is never sent, so it fails its own call with a plain error (not
// ErrConnLost, which would invite a redial) and the connection keeps
// answering other calls.
func TestConnOversizeRequestFailsOnlyItsCall(t *testing.T) {
	addr := startLoopback(t, func(nc net.Conn) {
		for {
			id, err := readID(nc)
			if err != nil || answerID(nc, id) != nil {
				return
			}
		}
	})
	c := dialLoopback(t, addr)
	res := c.Call(0, func(b []byte, id uint64) []byte {
		return append(AppendPingRequest(b, id), make([]byte, MaxFrame)...)
	})
	if res.Err == nil || errors.Is(res.Err, ErrConnLost) {
		t.Fatalf("oversize request: err = %v, want a non-transport error", res.Err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("connection failed by an oversize request: %v", err)
	}
	var id uint64
	if res := c.Call(0, pingEncoder(&id)); res.Err != nil || len(res.Flat) != 1 || res.Flat[0].ID != int64(id) {
		t.Fatalf("call after the oversize request: %+v", res)
	}
}
