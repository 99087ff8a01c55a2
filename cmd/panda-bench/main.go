// Command panda-bench regenerates the tables and figures of the PANDA
// paper's evaluation section on the simulated cluster.
//
// Usage:
//
//	panda-bench -experiment all            # everything, paper order
//	panda-bench -experiment fig4           # one experiment
//	panda-bench -experiment table1 -scale 0.1   # quick pass at 1/10 size
//	panda-bench -calibrate                 # calibrate model rates to host
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"panda/internal/bench"
	"panda/internal/simtime"
)

func main() {
	experiment := flag.String("experiment", "all",
		"experiment to run: all|"+strings.Join(bench.Experiments(), "|"))
	scale := flag.Float64("scale", 1.0, "dataset size multiplier (use <1 for quick runs)")
	calibrate := flag.Bool("calibrate", false, "calibrate model compute rates to this host (default: pinned rates)")
	flag.Parse()

	cfg := bench.Config{Out: os.Stdout, Scale: *scale}
	if *calibrate {
		cfg.Rates = simtime.Calibrate()
	}
	if err := bench.Run(cfg, *experiment); err != nil {
		fmt.Fprintln(os.Stderr, "panda-bench:", err)
		os.Exit(1)
	}
}
