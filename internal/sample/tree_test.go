package sample_test

import (
	"reflect"
	"runtime"
	"testing"

	"panda/internal/data"
	"panda/internal/kdtree"
	"panda/internal/sample"
)

// TestTreeRawIdenticalWithoutKernel: every large split of a kd-tree build
// runs the block kernel through HistogramPar, so a tree built with the
// kernel swapped out for the Go fallback must be byte-identical — the same
// Raw() state — on the 3-D cosmo and 10-D dayabay data, at 1 and 2 threads.
func TestTreeRawIdenticalWithoutKernel(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	for _, d := range []data.Dataset{data.Cosmo(150_000, 25), data.DayaBay(80_000, 25)} {
		for _, threads := range []int{1, 2} {
			opts := kdtree.Options{Threads: threads}
			was := sample.SetKernel(false)
			want := kdtree.Build(d.Points, nil, opts).Raw()
			sample.SetKernel(was)
			got := kdtree.Build(d.Points, nil, opts).Raw()
			if got.Fingerprint() != want.Fingerprint() || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s threads=%d: tree differs with the block kernel", d.Name, threads)
			}
		}
	}
}
