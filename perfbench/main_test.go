package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tiny shrinks a workload so a run takes well under a second.
func tiny(t *testing.T, name string) (spec, runConfig) {
	t.Helper()
	sp, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.points, sp.pool = 4000, 600
	if sp.batch > 0 {
		sp.batch = 200
	}
	if sp.rate > 0 {
		sp.rate = 400
	}
	return sp, runConfig{seed: 3, window: 300 * time.Millisecond, warmup: 100 * time.Millisecond}
}

// TestCorruptedExpectedAnswerFailsRun proves the harness checks answers:
// an unmodified run passes, and the same run against one corrupted
// reference answer reports a mismatch.
func TestCorruptedExpectedAnswerFailsRun(t *testing.T) {
	for _, name := range []string{"serve-light", "serve-saturated", "batch-dayabay10d", "cluster4-routed"} {
		t.Run(name, func(t *testing.T) {
			sp, cfg := tiny(t, name)
			in, err := prepare(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := run(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Mismatches != 0 || rec.Errors != 0 || rec.Lagged != 0 {
				t.Fatalf("unmodified run: %d mismatches, %d errors, %d lagged", rec.Mismatches, rec.Errors, rec.Lagged)
			}
			if got := rec.EndToEnd["success_rate"].Value; got != 1 {
				t.Fatalf("unmodified run: success_rate %v, want 1", got)
			}
			// Every workload issues pool query 0 first.
			in.qs.want[0][0].ID ^= 1
			rec, err = run(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Mismatches == 0 {
				t.Fatal("corrupted reference answer went unnoticed")
			}
		})
	}
}

// TestTracedRunReportsRegisteredMetrics checks that the metric names in
// BENCHMARK.json are exactly the ones a run prints, with the same units.
func TestTracedRunReportsRegisteredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json registers %d workloads, the benchmark has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("registered workload %q does not exist", w.Name)
		}
	}
	sp, cfg := tiny(t, "cluster4-routed")
	cfg.traced = true
	in, err := prepare(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, registered []struct{ Name, Unit string }, got metrics) {
		if len(registered) != len(got) {
			t.Errorf("%s: %d registered, %d reported", kind, len(registered), len(got))
		}
		for _, r := range registered {
			m, ok := got[r.Name]
			if !ok {
				t.Errorf("%s metric %q is not reported", kind, r.Name)
			} else if m.Unit != r.Unit {
				t.Errorf("%s metric %q: unit %q, registered %q", kind, r.Name, m.Unit, r.Unit)
			}
		}
	}
	check("end-to-end", bench.EndToEnd, rec.EndToEnd)
	check("per-layer", bench.PerLayer, rec.Layers)
	for _, name := range []string{"core.dist_build_s", "server.forwarded_frac", "server.remote_exchange_us", "client.self_us"} {
		if rec.Layers[name].Value <= 0 {
			t.Errorf("traced cluster run: %s = %v, want > 0", name, rec.Layers[name].Value)
		}
	}
}
