package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"panda"
)

// maxRequestSpans bounds the per-request spans a traced run keeps in memory
// (~20 MB); later requests' spans are counted as dropped, while aggregates
// such as the client self time still see every request. Spans around
// set-up and layer calls are few and always kept.
const maxRequestSpans = 1 << 18

// span is one traced interval. Harness spans start at an offset from the
// run's start; server stage spans (Server true) start at an offset from the
// recording rank's own arrival stamp, as Client.KNNTraced returns them.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Rank   int32  `json:"rank"` // recording rank; -1 for the harness or a single-node server
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Server bool   `json:"server,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how the untraced run stays untraced.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	next    int64
	kept    int64 // request spans kept
	dropped int64 // request spans over maxRequestSpans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a harness span around one call into the program; rank is
// the cluster rank making the call (-1: none). A nil tracer records nothing.
func (t *tracer) record(name string, rank int32, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(span{Name: name, Rank: rank, Start: int64(start.Sub(t.t0)), Dur: int64(dur)})
}

func (t *tracer) add(s span) int64 {
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	return s.ID
}

// requestSpans records one traced client request and the server stage
// spans it carried as its children, and returns the summed duration of the
// spans recorded by the entry rank — the server-side share of the client's
// latency.
func (t *tracer) requestSpans(sent, done time.Time, entry int32, stages []panda.TraceSpan) int64 {
	var server int64
	for _, s := range stages {
		if s.Rank == entry {
			server += s.Dur
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int64(1 + len(stages))
	if t.kept+n > maxRequestSpans {
		t.dropped += n
		return server
	}
	t.kept += n
	parent := t.add(span{Name: "client.KNNTraced", Rank: -1, Start: int64(sent.Sub(t.t0)), Dur: int64(done.Sub(sent))})
	for _, s := range stages {
		t.add(span{Parent: parent, Name: "server." + s.Stage, Rank: s.Rank, Start: s.Start, Dur: s.Dur, Server: true})
	}
	return server
}

// writeFile writes the spans as JSON lines, then one summary line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]int64{"spans": int64(len(t.spans)), "dropped": t.dropped}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
