package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"panda/internal/proto"
	"panda/internal/server"
)

// snapshot is the cumulative serving and runtime state at one instant,
// summed over every rank. Window figures are differences of two snapshots,
// so set-up, warm-up and earlier phases never leak into them.
type snapshot struct {
	at                     time.Time
	queries, batches, shed int64
	stageSum               [proto.NumStages]float64 // seconds
	stageCount             [proto.NumStages]float64
	numGC                  uint32
	gcPauseNs              uint64
	ticks                  hostTicks
}

// takeSnapshot reads each server's Stats and WriteMetrics exposition, the
// Go runtime's GC counters and the host's CPU ticks.
func takeSnapshot(servers []*server.Server) snapshot {
	s := snapshot{at: time.Now()}
	var buf bytes.Buffer
	for _, srv := range servers {
		st := srv.Stats()
		s.queries += st.Queries
		s.batches += st.Batches
		s.shed += st.Shed
		buf.Reset()
		srv.WriteMetrics(&buf)
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			name, rest, ok := strings.Cut(sc.Text(), `{stage="`)
			if !ok {
				continue
			}
			stage, val, ok := strings.Cut(rest, `"} `)
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			for i, n := range proto.StageNames {
				if n != stage {
					continue
				}
				switch name {
				case "panda_stage_latency_seconds_sum":
					s.stageSum[i] += v
				case "panda_stage_latency_seconds_count":
					s.stageCount[i] += v
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.numGC = ms.NumGC
	s.gcPauseNs = ms.PauseTotalNs
	s.ticks = readTicks()
	return s
}

// hostTicks are the host's cumulative CPU ticks over all CPUs, and the
// stolen ones among them: time a hypervisor ran other guests while this
// one wanted to run.
type hostTicks struct{ total, steal int64 }

// readTicks reads the host's CPU ticks from /proc/stat (zero when absent).
func readTicks() hostTicks {
	var t hostTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseInt(f, 10, 64)
		if i == 0 || err != nil {
			continue // the "cpu" label
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealBetween is the share of CPU time stolen between a and b.
func stealBetween(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stageMeanUs is the mean time, in µs, a request spent in stage between a
// and b.
func stageMeanUs(a, b snapshot, stage uint8) float64 {
	n := b.stageCount[stage] - a.stageCount[stage]
	if n <= 0 {
		return 0
	}
	return (b.stageSum[stage] - a.stageSum[stage]) / n * 1e6
}
