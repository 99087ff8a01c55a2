package proto

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"panda/internal/kdtree"
)

// ErrConnLost marks transport-level failures: a broken connection, a failed
// send, a malformed response frame. A call failing with it never reached a
// usable answer, so a pure read is safe to replay on a fresh connection.
// KindError answers never wrap it.
var ErrConnLost = errors.New("proto: connection lost")

// ErrCallTimeout marks a Call that ran out of time waiting for its response
// (a wedged or overloaded server). The connection itself stays usable.
var ErrCallTimeout = errors.New("proto: call timed out")

// Conn is the client half of one serving connection: the handshake, then
// pipelined request/response round trips. Concurrent calls share it —
// each gets a connection-chosen request id, one reader goroutine routes
// responses to waiters by id, and sends are framed under a write lock — so
// N goroutines on one Conn keep N requests in flight.
type Conn struct {
	// ID is the dataset the connection bound to at handshake.
	ID DatasetID

	nc net.Conn

	wmu  sync.Mutex // serializes request writes
	wbuf []byte

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan Result
	err     error // sticky; set when the connection dies
}

// Result is one response handed to a caller of Call, copied out of the
// reader's decode scratch so the caller owns it. Err is set only for
// transport failures (ErrConnLost, ErrCallTimeout, or the error given to
// Fail); a KindError answer arrives with Kind == KindError and its message
// in ErrMsg. The other fields follow Response.
type Result struct {
	Kind     uint8
	ErrMsg   string
	Offsets  []int32
	Flat     []kdtree.Neighbor
	Spans    []TraceSpan
	Stats    StatsBody
	Shard    int
	FileSize uint64
	ChunkCRC uint32
	Data     []byte

	Err error
}

// Dial connects to addr and runs the handshake, requesting dataset ("" =
// the server's default tenant). timeout bounds the connect and the
// handshake together.
func Dial(addr, dataset string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(timeout))
	_, err = nc.Write(AppendHello(nil, dataset))
	br := bufio.NewReader(nc) // a read syscall serves many small frames
	var id DatasetID
	if err == nil {
		id, err = ReadWelcome(br)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("proto: handshake: %w", err)
	}
	nc.SetDeadline(time.Time{})
	c := &Conn{ID: id, nc: nc, waiting: map[uint64]chan Result{}}
	go c.readLoop(br)
	return c, nil
}

// Err returns the error that closed the connection, or nil while it is
// usable.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Fail closes the connection: every waiting call and every later call
// returns err. The first error sticks.
func (c *Conn) Fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.waiting {
		delete(c.waiting, id)
		ch <- Result{Err: c.err}
	}
	c.mu.Unlock()
	c.nc.Close()
}

func (c *Conn) forget(id uint64) {
	c.mu.Lock()
	delete(c.waiting, id)
	c.mu.Unlock()
}

// Call sends one request — encode appends its payload for the given
// request id — and waits for the response. With timeout > 0 the write is
// deadlined (a server that stopped reading cannot pin the write lock) and
// the wait gives up with ErrCallTimeout after timeout; with timeout == 0
// the call waits until the response arrives or the connection fails. A
// request too large for one frame fails this call alone: nothing was sent,
// so the connection stays usable.
func (c *Conn) Call(timeout time.Duration, encode func(b []byte, id uint64) []byte) Result {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Result{Err: err}
	}
	id := c.nextID
	c.nextID++
	ch := make(chan Result, 1)
	c.waiting[id] = ch
	c.mu.Unlock()

	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	c.wmu.Lock()
	c.wbuf = encode(BeginFrame(c.wbuf[:0]), id)
	if err := FinishFrame(c.wbuf, 0); err != nil {
		c.wbuf = nil // do not keep the oversize encoding
		c.wmu.Unlock()
		c.forget(id)
		return Result{Err: fmt.Errorf("proto: request not sent: %w", err)}
	}
	c.nc.SetWriteDeadline(deadline)
	_, err := c.nc.Write(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		// The request never reached the server; fail the connection so
		// other callers stop writing into a broken pipe.
		c.forget(id)
		err = fmt.Errorf("%w: send: %w", ErrConnLost, err)
		c.Fail(err)
		return Result{Err: err}
	}

	if timeout <= 0 {
		return <-ch
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res
	case <-timer.C:
		c.forget(id) // a late answer to id is dropped by the reader
		return Result{Err: fmt.Errorf("%w after %v", ErrCallTimeout, timeout)}
	}
}

// readLoop is the connection's single response reader: it decodes frames
// and routes them to waiters by request id, until the first read or decode
// error fails the connection.
func (c *Conn) readLoop(br *bufio.Reader) {
	var buf []byte
	var resp Response
	for {
		payload, err := ReadFrame(br, buf)
		if err != nil {
			c.Fail(fmt.Errorf("%w: %w", ErrConnLost, err))
			return
		}
		buf = payload
		if err := ConsumeResponse(payload, &resp); err != nil {
			c.Fail(fmt.Errorf("%w: malformed response: %w", ErrConnLost, err))
			return
		}
		c.mu.Lock()
		ch := c.waiting[resp.ID]
		delete(c.waiting, resp.ID)
		c.mu.Unlock()
		if ch == nil {
			continue // abandoned (timed-out) id
		}
		ch <- Result{
			Kind:     resp.Kind,
			ErrMsg:   resp.Err,
			Offsets:  append([]int32(nil), resp.Offsets...),
			Flat:     append([]kdtree.Neighbor(nil), resp.Flat...),
			Spans:    append([]TraceSpan(nil), resp.Spans...),
			Stats:    resp.Stats,
			Shard:    resp.Shard,
			FileSize: resp.FileSize,
			ChunkCRC: resp.ChunkCRC,
			Data:     append([]byte(nil), resp.Data...),
		}
	}
}
