package bench

import (
	"time"

	"panda/internal/data"
	"panda/internal/kdtree"
	"panda/internal/sample"
)

// Ablations regenerates the three design-choice studies §III-A1 quantifies:
//
//  1. split dimension: max-variance vs max-range. Paper: variance adds up
//     to 18% to construction but improves query performance by up to 43%
//     (particle-physics-like data).
//  2. histogram bin location: two-level sub-interval scan vs binary
//     search. Paper: up to 42% local-construction gain.
//  3. bucket size: paper: 32 is the best total-time point.
func Ablations(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := ablationSplitDim(cfg); err != nil {
		return err
	}
	if err := ablationBinSearch(cfg); err != nil {
		return err
	}
	return ablationBucketSize(cfg)
}

// heavyTail builds the split-dimension stress dataset: two informative
// uniform dimensions plus one whose range stays large at every tree level
// while almost all its mass sits in a thin slab — the shape that fools
// max-range split selection persistently (co-located detector channels
// have this character, which is where the paper saw the 43%).
func heavyTail(n int, seed uint64) data.Dataset {
	rng := data.NewRNG(seed)
	d := data.Uniform(n, 3, seed)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.95 {
			d.Points.At(i)[2] = rng.Float32() * 0.01
		} else {
			d.Points.At(i)[2] = rng.Float32() * 1.2
		}
	}
	d.Name = "heavytail"
	return d
}

func ablationSplitDim(cfg Config) error {
	cfg.printf("== Ablation: split dimension (max-variance vs max-range) ==\n")
	cfg.printf("%-12s %12s %12s %12s %12s %12s\n",
		"dataset", "build-var", "build-range", "query-var", "query-range", "query-gain")
	cases := []data.Dataset{
		data.Cosmo(cfg.n(400_000), 2016),
		data.DayaBay(cfg.n(250_000), 2016),
		heavyTail(cfg.n(400_000), 2016),
	}
	for _, d := range cases {
		n := d.Points.Len()
		var buildT, queryT [2]float64
		for i, pol := range []sample.SplitPolicy{sample.MaxVariance, sample.MaxRange} {
			start := time.Now()
			tree := kdtree.Build(d.Points, nil, kdtree.Options{SplitPolicy: pol})
			buildT[i] = time.Since(start).Seconds()
			s := tree.NewSearcher()
			start = time.Now()
			for q := 0; q < n/10; q++ {
				s.Search(d.Points.At((q*13)%n), 5, kdtree.Inf2, nil)
			}
			queryT[i] = time.Since(start).Seconds()
		}
		cfg.printf("%-12s %11.3fs %11.3fs %11.3fs %11.3fs %+11.1f%%\n",
			d.Name, buildT[0], buildT[1], queryT[0], queryT[1],
			100*(queryT[1]-queryT[0])/queryT[1])
	}
	cfg.printf("(paper: variance costs <=18%% extra construction, wins up to 43%% on querying)\n\n")
	return nil
}

func ablationBinSearch(cfg Config) error {
	cfg.printf("== Ablation: histogram bin location (sub-interval scan vs binary search) ==\n")
	// Time whole histogram passes, the way tree construction runs them,
	// over realistic interval-point counts (the local tree uses 1024
	// samples; the global tree up to 2048 merged boundaries). The scan
	// side is the block kernel of sample.Intervals.HistogramInto.
	rng := data.NewRNG(7)
	cfg.printf("%10s %16s %18s %10s\n", "intervals", "scan (ns/point)", "binary (ns/point)", "gain")
	coords := make([]float32, 1<<16)
	idx := make([]int32, len(coords))
	for i := range coords {
		coords[i] = rng.Float32()
		idx[i] = int32(i)
	}
	for _, m := range []int{256, 1024, 2048} {
		vals := make([]float32, m)
		for i := range vals {
			vals[i] = rng.Float32()
		}
		iv := sample.NewIntervals(vals)
		counts := make([]int64, iv.Bins())
		const reps = 20
		nsPerPoint := func(useScan bool) float64 {
			start := time.Now()
			for r := 0; r < reps; r++ {
				iv.HistogramInto(counts, coords, 1, 0, idx, useScan)
			}
			return float64(time.Since(start).Nanoseconds()) / float64(reps*len(idx))
		}
		scanNS, binNS := nsPerPoint(true), nsPerPoint(false)
		cfg.printf("%10d %16.2f %18.2f %9.1f%%\n", m, scanNS, binNS, 100*(binNS-scanNS)/binNS)
	}
	cfg.printf("(paper: scan gains up to 42%% of local construction over binary search)\n\n")
	return nil
}

func ablationBucketSize(cfg Config) error {
	cfg.printf("== Ablation: bucket size (construction+query total; paper: 32 best) ==\n")
	d := data.Cosmo(cfg.n(400_000), 2016)
	n := d.Points.Len()
	cfg.printf("%8s %12s %12s %12s %8s\n", "bucket", "build(s)", "query(s)", "total(s)", "height")
	type row struct {
		bucket int
		total  float64
	}
	var best row
	for _, bs := range []int{8, 16, 32, 64, 128, 256} {
		start := time.Now()
		tree := kdtree.Build(d.Points, nil, kdtree.Options{BucketSize: bs})
		buildT := time.Since(start).Seconds()
		s := tree.NewSearcher()
		start = time.Now()
		for q := 0; q < n/5; q++ {
			s.Search(d.Points.At((q*13)%n), 5, kdtree.Inf2, nil)
		}
		queryT := time.Since(start).Seconds()
		total := buildT + queryT
		if best.bucket == 0 || total < best.total {
			best = row{bucket: bs, total: total}
		}
		cfg.printf("%8d %11.3fs %11.3fs %11.3fs %8d\n", bs, buildT, queryT, total, tree.Height())
	}
	cfg.printf("best bucket size on this host: %d\n\n", best.bucket)
	return nil
}
