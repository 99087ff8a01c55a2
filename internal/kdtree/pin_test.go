package kdtree

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/sample"
	"panda/internal/simtime"
)

// unitsText renders every phase's per-thread work units in phase order, one
// line per (phase, thread), as "phase/tN kind=units ...". It is the
// readable side of unitsDigest, printed when a pin fails.
func unitsText(rec *simtime.Recorder) string {
	var b strings.Builder
	for _, pm := range rec.Phases() {
		for t := range pm.Threads {
			fmt.Fprintf(&b, "%s/t%d", pm.Name, t)
			for k := 0; k < simtime.NumKinds; k++ {
				if u := pm.Threads[t].Units(simtime.Kind(k)); u != 0 {
					fmt.Fprintf(&b, " %s=%d", simtime.Kind(k), u)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func unitsDigest(rec *simtime.Recorder) uint64 {
	h := fnv.New64a()
	h.Write([]byte(unitsText(rec)))
	return h.Sum64()
}

// TestBuildOutputsPinned pins construction to fixed outputs: the content
// fingerprint of the built tree and a digest of every phase's per-thread
// simulated work units, for PANDA's defaults and the FLANN and ANN option
// sets at 1 and 4 threads. The values were recorded from an earlier build
// and must never move under a refactor of the builder — a change that moves
// them changes the trees or the simulated timings the figures report. The
// same values hold on every target CI runs: amd64, GOAMD64=v3 (where the
// compiler may fuse multiply-adds) and GOARCH=386.
func TestBuildOutputsPinned(t *testing.T) {
	sets := []struct {
		name string
		pts  geom.Points
	}{
		{"cosmo", data.Cosmo(20000, 1).Points},
		{"dayabay", data.DayaBay(20000, 1).Points},
	}
	optionSets := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"flann", Options{SplitValue: SplitMeanSample, DimSampleCap: 100, BucketSize: 10}},
		{"ann", Options{SplitPolicy: sample.MaxRange, SplitValue: SplitMidRange, BucketSize: 1}},
	}
	// name -> {tree fingerprint, units digest}
	want := map[string][2]uint64{
		"cosmo/default/t1":   {0x256f32fd3113d326, 0x92d3eabb8433413b},
		"cosmo/default/t4":   {0x256f32fd3113d326, 0x75eb0703c5f57356},
		"cosmo/flann/t1":     {0xb8856b58b416dddc, 0x253b6f4a69f020aa},
		"cosmo/flann/t4":     {0xb8856b58b416dddc, 0x68d2cf6733186b04},
		"cosmo/ann/t1":       {0xe100f0159e28bdfb, 0xa489de32d9a22bcb},
		"cosmo/ann/t4":       {0xe100f0159e28bdfb, 0x6b90c6df4fcc2706},
		"dayabay/default/t1": {0xc8b381f56f7065b9, 0x584b285c0a9fd898},
		"dayabay/default/t4": {0xc8b381f56f7065b9, 0x135e992fedc2b315},
		"dayabay/flann/t1":   {0x5e35c5ce7e16ff34, 0xc92551e64dbd91d1},
		"dayabay/flann/t4":   {0x5e35c5ce7e16ff34, 0x503421b399463739},
		"dayabay/ann/t1":     {0x0ca3747c8cf906e2, 0x0c484bd83dac9380},
		"dayabay/ann/t4":     {0x0ca3747c8cf906e2, 0xdadbb0b192b127bf},
	}
	for _, set := range sets {
		for _, ov := range optionSets {
			for _, threads := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/t%d", set.name, ov.name, threads)
				opts := ov.opts
				opts.Threads = threads
				opts.Recorder = simtime.NewRecorder(threads)
				tr := Build(set.pts, nil, opts)
				got := [2]uint64{tr.Raw().Fingerprint(), unitsDigest(opts.Recorder)}
				w := want[name]
				if got[0] != w[0] {
					t.Errorf("%s: tree fingerprint %016x, pinned %016x", name, got[0], w[0])
				}
				if got[1] != w[1] {
					t.Errorf("%s: work-unit digest %016x, pinned %016x; units now:\n%s", name, got[1], w[1], unitsText(opts.Recorder))
				}
			}
		}
	}
}
