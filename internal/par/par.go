// Package par is the shared bounded worker pool behind PANDA's real
// (wall-clock) construction parallelism: a Threads-capped parallel-for with
// chunk boundaries that are a pure function of the problem size — never of
// the worker count — so every pass that reduces per-chunk partial results in
// chunk order produces bit-identical output whether it ran on one worker or
// sixteen.
//
// The pool deliberately separates the two thread notions the reproduction
// carries:
//
//   - Options.Threads is the *simulated* thread count of the paper's cost
//     model (it decides the data-parallel/thread-parallel switchover and
//     which simulated meter work is charged to);
//   - the pool's worker count is the *real* parallelism — Threads clamped
//     to GOMAXPROCS — used to make the same deterministic work finish in
//     less wall-clock time.
//
// Determinism contract: callers must make every chunk's writes disjoint and
// every cross-chunk reduction ordered by chunk index. Under that contract
// the pool is invisible in the output; it only moves the clock.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded parallel-for executor. The zero value and nil both act
// as a single-worker (sequential) pool, so callers can thread an optional
// pool through without nil checks.
type Pool struct {
	workers int
}

// NewPool returns a pool of min(threads, GOMAXPROCS) workers (at least 1).
// Capping at GOMAXPROCS keeps the simulated thread count — which legitimately
// exceeds the host's cores when modeling the paper's 16-way Xeons — from
// oversubscribing the real scheduler.
func NewPool(threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	if g := runtime.GOMAXPROCS(0); threads > g {
		threads = g
	}
	return &Pool{workers: threads}
}

// Workers returns the real worker count (1 for a nil or zero pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Chunks returns the number of fixed chunks covering [0, n) at the given
// chunk size: the c passed to a ForChunks callback ranges over [0, Chunks).
func Chunks(n, chunk int) int {
	if n <= 0 {
		return 0
	}
	if chunk < 1 {
		chunk = 1
	}
	return (n + chunk - 1) / chunk
}

// ForEach calls fn(i) for every i in [0, n), handing indices to workers
// dynamically (the work-queue form the construction stages use for
// whole-task fan-out). Results must not depend on which worker ran which
// index.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.ForChunks(n, 1, func(_, lo, _ int) { fn(lo) })
}

// ForChunks partitions [0, n) into fixed chunks of size chunk — boundaries
// depend only on n and chunk, never on the worker count — and calls
// fn(c, lo, hi) for every chunk, distributing chunks to workers dynamically.
// It returns after every chunk completes. With one worker (or one chunk) it
// degenerates to an ordered sequential loop.
func (p *Pool) ForChunks(n, chunk int, fn func(c, lo, hi int)) {
	nc := Chunks(n, chunk)
	if nc == 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	workers := p.Workers()
	if workers > nc {
		workers = nc
	}
	if workers <= 1 {
		for c := 0; c < nc; c++ {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(c, lo, hi)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	run := func() {
		for {
			c := int(cursor.Add(1)) - 1
			if c >= nc {
				return
			}
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(c, lo, hi)
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
