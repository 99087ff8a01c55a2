// Command perfbench is the repository benchmark. It runs one named
// workload inside a single process, checks every answer bit-for-bit against
// a reference tree built outside the timed window, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of the untraced
// run; with --trace 1 the run repeats the workload with spans recorded
// around every call into the program and prints the per-layer metrics
// instead. A line before the result ("record {...}") carries the host,
// dataset and sample-count record; the same record, and the spans of a
// traced run, are written under $CARGO_TARGET_DIR (default .bench_build).
//
// Run it from the repository root through the build script:
//
//	bash perfbench/run.sh --workload serve-light --seed 1 --seconds 10 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed for the dataset, the query mix and the arrival schedule")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()

	sp, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds ≥ 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	outDir := os.Getenv("CARGO_TARGET_DIR")
	if outDir == "" {
		outDir = ".bench_build"
	}
	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		warmup: time.Second,
		traced: *trace == 1,
	}
	if err := benchmark(sp, cfg, outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmark runs one workload and prints its record and result lines.
func benchmark(sp spec, cfg runConfig, outDir string) error {
	in, err := prepare(sp, cfg)
	if err != nil {
		return err
	}
	rec, err := run(in, cfg)
	if err != nil {
		return err
	}
	metrics := rec.EndToEnd
	if cfg.traced {
		metrics = rec.Layers
	}
	res := result{
		Correct:   rec.Mismatches == 0 && rec.Errors == 0,
		Attempted: rec.Attempted,
		Failed:    rec.Errors + rec.Lagged + rec.Mismatches,
		Metrics:   metrics,
	}

	tag := fmt.Sprintf("%s-seed%d", sp.name, cfg.seed)
	if cfg.traced {
		tag += "-traced"
		path := filepath.Join(outDir, "traces", tag+".jsonl")
		if err := rec.tracer.writeFile(path); err != nil {
			return err
		}
		rec.TraceFile = path
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(outDir, "runs", tag+".json"), append(line, '\n')); err != nil {
		return err
	}
	fmt.Printf("record %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d answers differ from the reference and %d requests failed", rec.Mismatches, rec.Errors)
	}
	return nil
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
