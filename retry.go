// Client-side fault tolerance: retrying dials and transparent
// reconnect-and-retry for idempotent calls. KNN, radius, and stats requests
// are pure reads, so replaying one after a transport failure cannot
// double-apply anything — the only care needed is distinguishing transport
// failures (retry) from semantic server errors (return immediately).
package panda

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"panda/internal/proto"
)

// RetryPolicy controls dial retries and idempotent-call retries for clients
// created by a Dialer with this policy as its Retry. The zero value disables
// retrying entirely (one attempt, no reconnect).
type RetryPolicy struct {
	// Attempts is the total number of tries per operation (the first try
	// included). Values below 1 mean 1.
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles each
	// retry with ±50% jitter. Defaults to 50ms when Attempts > 1.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Defaults to 2s when Attempts > 1.
	MaxDelay time.Duration
	// RetryOverloaded also retries (with the same backoff, but without
	// reconnecting — the connection is healthy) queries the server refused
	// at its admission limit (ErrOverloaded). Off, overload errors surface
	// immediately so the caller can shed load its own way.
	RetryOverloaded bool
}

// DefaultRetry suits most serving clients: a handful of attempts spread
// over a few seconds, long enough to ride out a cluster failover window or
// a transient overload spike.
var DefaultRetry = RetryPolicy{Attempts: 6, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, RetryOverloaded: true}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the jittered exponential delay before retry number
// attempt (0-based): BaseDelay·2^attempt, capped at MaxDelay, ±50% jitter.
// The jitter keeps a fleet of clients that lost the same rank from
// redialing in lockstep.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// retryable reports whether err is worth another attempt under the
// client's policy, and whether that attempt needs a fresh connection first.
func (c *Client) retryable(err error) (retry, redial bool) {
	if errors.Is(err, proto.ErrConnLost) {
		return true, true
	}
	if c.retry.RetryOverloaded && errors.Is(err, ErrOverloaded) {
		return true, false // the connection is healthy; just back off
	}
	return false, false
}

// callRetry issues an idempotent request, reconnecting and retrying on
// transport failures — and, when the policy opts in, backing off and
// retrying overload refusals on the same connection — per the client's
// policy. Semantic errors (the server answered KindError) and explicit
// Close return immediately; exhausted retries surface the attempt count and
// the last failure.
func (c *Client) callRetry(encode func(b []byte, id uint64) []byte) (proto.Result, error) {
	res, err := c.call(encode)
	retry, redial := c.retryable(err)
	if err == nil || c.retry.Attempts <= 1 || !retry {
		return res, err
	}
	last := err
	for attempt := 1; attempt < c.retry.Attempts; attempt++ {
		time.Sleep(c.retry.backoff(attempt - 1))
		if redial {
			if rerr := c.reconnect(); rerr != nil {
				if errors.Is(rerr, ErrClientClosed) {
					return proto.Result{}, rerr
				}
				last = rerr
				continue // the next backoff may find a revived rank
			}
		}
		res, err = c.call(encode)
		if retry, redial = c.retryable(err); err == nil || !retry {
			return res, err
		}
		last = err
	}
	return proto.Result{}, fmt.Errorf("panda: giving up after %d attempts: %w", c.retry.Attempts, last)
}

// reconnect replaces a failed connection, trying every known address and
// accepting only one whose welcome reports exactly the dataset id the
// client first bound to — name, dims, point count, and content fingerprint.
// Anything else would silently change query answers mid-session: two
// datasets of identical shape (a rank restarted on another snapshot, a
// stale DNS entry now pointing at an unrelated panda server) hash
// differently and are refused. Failures wrap proto.ErrConnLost so the retry
// loop keeps looking for a revived correct rank until attempts exhaust. It
// is a no-op when another goroutine already reconnected (many callers hit
// the same dead connection at once; only one redial should happen).
func (c *Client) reconnect() error {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClientClosed
	}
	if c.conn.Load().Err() == nil {
		return nil // already healthy again
	}
	conn, err := dialAny(c.addrs, c.dataset, c.id)
	if err != nil {
		return fmt.Errorf("%w: redial: %w", proto.ErrConnLost, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Fail(ErrClientClosed)
		return ErrClientClosed
	}
	c.conn.Store(conn)
	return nil
}
