package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"panda"
)

// Load generator settings. Open-loop arrivals are served by a fixed pool
// of workers (never a goroutine per arrival); an arrival that finds
// openWorkers requests in flight and openQueue more waiting is counted as
// lagged rather than sent late without bound.
const (
	openWorkers = 64
	// openQueue holds two seconds of arrivals at the highest open-loop
	// rate, so only a multi-second stall of the program drops arrivals.
	openQueue = 4096
	// slices splits each measured window to match requests with the host
	// CPU time stolen while they ran (see phaseResult.stats).
	slices = 100
)

// rec is one issued request. Times are nanoseconds from the phase start.
type rec struct {
	at     int64 // when the request counts: due time (open loop) or completion (closed loop)
	lat    int64 // latency: completion minus due time (open) or send time (closed)
	late   int64 // open loop: send time minus due time
	self   int64 // traced KNN: client latency minus the entry rank's server spans (-1: none)
	ok     bool  // answered and equal to the reference
	err    bool  // transport or server error (refusals included)
	lagged bool  // open loop: dropped at the outstanding cap
}

// phaseResult is one load window's requests plus the server snapshots
// bracketing its measured part and the host's CPU ticks at each slice
// boundary.
type phaseResult struct {
	recs          []rec
	from, to      int64 // measured window, ns from the phase start
	before, after snapshot
	ticks         [slices + 1]hostTicks
}

// runLoad drives one phase — warm-up then the measured window — against the
// deployment and checks every answer. base is the pool index the phase
// starts at; a non-nil tr switches KNN calls to Client.KNNTraced and
// records their spans.
func runLoad(d *deployment, in *inputs, cfg runConfig, phase, base int, tr *tracer) phaseResult {
	ph := phaseResult{from: int64(cfg.warmup), to: int64(cfg.warmup + cfg.window)}
	start := time.Now()
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for i := range ph.ticks {
			time.Sleep(time.Until(start.Add(cfg.warmup + time.Duration(i)*cfg.window/slices)))
			switch i {
			case 0:
				ph.before = takeSnapshot(d.servers)
			case slices:
				ph.after = takeSnapshot(d.servers)
			}
			ph.ticks[i] = readTicks()
		}
	}()
	if in.sp.rate > 0 {
		ph.recs = openLoop(d, in, in.sched[phase], base, start, tr)
	} else {
		ph.recs = closedLoop(d, in, base, start, cfg.warmup+cfg.window, tr)
	}
	sampler.Wait()
	return ph
}

// send sends pool query i on client c and checks the answer.
func send(d *deployment, in *inputs, c, i int, sent time.Time, tr *tracer) (r rec) {
	qs := in.qs
	q := qs.point(i)
	var got []panda.Neighbor
	var spans []panda.TraceSpan
	var err error
	switch {
	case qs.k[i] == 0:
		got, err = d.clients[c].RadiusSearch(q, qs.r2[i])
	case tr != nil:
		got, spans, err = d.clients[c].KNNTraced(q, qs.k[i])
	default:
		got, err = d.clients[c].KNN(q, qs.k[i])
	}
	done := time.Now()
	r.self = -1
	if err != nil {
		r.err = true
	} else {
		r.ok = sameNeighbors(got, qs.want[i])
	}
	if tr != nil && qs.k[i] > 0 && err == nil {
		r.self = int64(done.Sub(sent)) - tr.requestSpans(sent, done, d.entry[c], spans)
	}
	return r
}

// openLoop sends the scheduled arrivals from a fixed worker pool, timing
// each request from when it was due.
func openLoop(d *deployment, in *inputs, sched []time.Duration, base int, start time.Time, tr *tracer) []rec {
	recs := make([]rec, len(sched))
	ch := make(chan int, openQueue)
	var wg sync.WaitGroup
	for w := 0; w < openWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				due := start.Add(sched[j])
				sent := time.Now()
				c := j % len(d.clients)
				r := send(d, in, c, (base+j)%in.qs.len(), sent, tr)
				r.at = int64(sched[j])
				r.late = int64(sent.Sub(due))
				r.lat = int64(time.Since(due))
				recs[j] = r
			}
		}()
	}
	for j, off := range sched {
		if wait := time.Until(start.Add(off)); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case ch <- j:
		default:
			recs[j] = rec{at: int64(off), lagged: true, self: -1}
		}
	}
	close(ch)
	wg.Wait()
	return recs
}

// closedLoop keeps conns × outstanding requests in flight until the phase
// ends, cycling through the query pool from base.
func closedLoop(d *deployment, in *inputs, base int, start time.Time, length time.Duration, tr *tracer) []rec {
	end := start.Add(length)
	workers := len(d.clients) * in.sp.outstanding
	per := make([][]rec, workers)
	var cursor atomic.Int64
	cursor.Store(int64(base))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				i := int(cursor.Add(1)-1) % in.qs.len()
				r := send(d, in, w%len(d.clients), i, sent, tr)
				now := time.Now()
				r.at = int64(now.Sub(start))
				r.lat = int64(now.Sub(sent))
				per[w] = append(per[w], r)
			}
		}(w)
	}
	wg.Wait()
	var recs []rec
	for _, p := range per {
		recs = append(recs, p...)
	}
	return recs
}

// counts tallies every checked operation of a run, warm-up included.
type counts struct {
	attempted, errors, lagged, mismatches int64
}

// check counts one answer compared with the reference.
func (c *counts) check(ok bool) {
	c.attempted++
	if !ok {
		c.mismatches++
	}
}

func (c *counts) add(recs []rec) {
	for _, r := range recs {
		c.attempted++
		switch {
		case r.lagged:
			c.lagged++
		case r.err:
			c.errors++
		case !r.ok:
			c.mismatches++
		}
	}
}

// windowStats are the measured window's end-to-end figures.
type windowStats struct {
	samples    int     // requests counted in the window
	failed     int     // of which errored, lagged or wrong
	throughput float64 // answered requests per second
	p50, p99   float64 // latency, µs
	lateP99    float64 // open-loop send lateness, µs
	selfP50    float64 // traced: client self time, µs (0 when untraced)
	steal      float64 // share of host CPU time stolen during the window
}

// stats reduces a phase to its window figures. The window is cut into
// slices and the figures come from the half of them in which the host
// withheld the least CPU time: on a shared virtual machine a hypervisor
// steals CPU in episodes that would otherwise move every figure.
func (ph *phaseResult) stats() windowStats {
	var ws windowStats
	span := (ph.to - ph.from) / slices
	steal := make([]float64, slices)
	for s := range steal {
		steal[s] = stealBetween(ph.ticks[s], ph.ticks[s+1])
	}
	quiet := quietest(steal)
	picked := make([]bool, slices)
	for _, s := range quiet {
		picked[s] = true
	}
	var lats, late, self []float64
	for _, r := range ph.recs {
		if r.at < ph.from || r.at >= ph.to {
			continue
		}
		ws.samples++
		if !r.ok || r.lagged || r.err {
			ws.failed++
			continue
		}
		if !picked[min((r.at-ph.from)/span, slices-1)] {
			continue
		}
		lats = append(lats, float64(r.lat)/1e3)
		late = append(late, float64(r.late)/1e3)
		if r.self >= 0 {
			self = append(self, float64(r.self)/1e3)
		}
	}
	ws.throughput = float64(len(lats)) / (float64(span*int64(len(quiet))) / 1e9)
	ws.p50 = percentile(lats, 0.50)
	ws.p99 = percentile(lats, 0.99)
	ws.steal = stealBetween(ph.ticks[0], ph.ticks[slices])
	ws.lateP99 = percentile(late, 0.99)
	ws.selfP50 = percentile(self, 0.50)
	return ws
}

// quietest returns the indices of the half of the intervals (rounded up)
// in which the host withheld the least CPU time, given each interval's
// stolen share; ties keep interval order.
func quietest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	return idx[:(len(idx)+1)/2]
}

// quietValues returns the values measured in the quietest half of the
// intervals, given the share of CPU stolen during each.
func quietValues(xs, steal []float64) []float64 {
	var out []float64
	for _, i := range quietest(steal) {
		out = append(out, xs[i])
	}
	return out
}

// percentile returns the nearest-rank p-quantile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
