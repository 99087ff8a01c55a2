// The `panda snapshot` subcommands: build a PNDS snapshot from a dataset,
// inspect a snapshot's header and sections, and verify one end to end
// (structure, CRC, and mmap-vs-copy query agreement).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"panda"
	"panda/internal/kdtree"
	"panda/internal/ptsio"
	"panda/internal/snapshot"
)

func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("snapshot: usage: panda snapshot build|inspect|verify [flags]")
	}
	switch args[0] {
	case "build":
		return cmdSnapshotBuild(args[1:])
	case "inspect":
		return cmdSnapshotInspect(args[1:])
	case "verify":
		return cmdSnapshotVerify(args[1:])
	default:
		return fmt.Errorf("snapshot: unknown subcommand %q (want build, inspect, or verify)", args[0])
	}
}

// cmdSnapshotBuild builds a tree from a .pnda dataset and writes the PNDS
// snapshot, reporting how build time amortizes into warm starts.
func cmdSnapshotBuild(args []string) error {
	fs := flag.NewFlagSet("snapshot build", flag.ExitOnError)
	in := fs.String("in", "", "input .pnda file (required)")
	out := fs.String("out", "", "output .pnds snapshot file (required)")
	bucket, threads, splitDim, splitVal := buildFlags(fs)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("snapshot build: -in and -out are required")
	}
	pts, _, err := ptsio.Load(*in)
	if err != nil {
		return err
	}
	opts := &panda.BuildOptions{BucketSize: *bucket, Threads: *threads, SplitDimension: *splitDim, SplitValue: *splitVal}
	start := time.Now()
	tree, err := panda.Build(pts.Coords, pts.Dims, nil, opts)
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	start = time.Now()
	if err := tree.WriteSnapshot(*out); err != nil {
		return err
	}
	writeTime := time.Since(start)
	start = time.Now()
	warm, err := panda.OpenSnapshot(*out)
	if err != nil {
		return fmt.Errorf("reopening written snapshot: %w", err)
	}
	openTime := time.Since(start)
	defer warm.Close()
	fmt.Printf("points      %d (%d-D)\n", tree.Len(), pts.Dims)
	fmt.Printf("build time  %v\n", buildTime)
	fmt.Printf("write time  %v\n", writeTime)
	fmt.Printf("open time   %v (%.0fx faster than build)\n", openTime, float64(buildTime)/float64(openTime))
	return nil
}

// cmdSnapshotInspect prints a snapshot's header, section table, and cluster
// metadata without materializing the tree.
func cmdSnapshotInspect(args []string) error {
	fs := flag.NewFlagSet("snapshot inspect", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file (required)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("snapshot inspect: -in is required")
	}
	info, err := snapshot.ReadInfo(*in)
	if err != nil {
		return err
	}
	fmt.Printf("format      PNDS v%d (%d bytes)\n", info.Version, info.FileSize)
	fmt.Printf("points      %d (%d-D)\n", info.Points, info.Dims)
	fmt.Printf("nodes       %d\n", info.Nodes)
	fmt.Printf("height      %d\n", info.Height)
	fmt.Printf("max bucket  %d (bucket size %d)\n", info.MaxBucket, info.BucketSize)
	crc := "OK"
	if !info.CRCOK {
		crc = "MISMATCH"
	}
	fmt.Printf("crc32c      %s\n", crc)
	// The content fingerprint half of the dataset id a server loading this
	// snapshot advertises in its v3 welcome (the tenant name is chosen at
	// serve time). Zero when a data section is missing or truncated.
	fmt.Printf("dataset id  dims=%d points=%d fp=%016x\n", info.Dims, info.Points, info.Fingerprint)
	fmt.Printf("sections:\n")
	for _, s := range info.Sections {
		fmt.Printf("  %-12s off %10d  len %10d\n", s.Name, s.Offset, s.Length)
	}
	if c := info.Cluster; c != nil {
		fmt.Printf("cluster     rank %d of %d, %d total points, %d global nodes\n",
			c.Rank, c.Ranks, c.TotalPoints, len(c.GlobalNodes))
	}
	if info.ClusterErr != nil {
		fmt.Printf("cluster     MALFORMED: %v\n", info.ClusterErr)
	}
	return nil
}

// cmdSnapshotVerify fully validates a snapshot: both load paths must accept
// it, and a sampled query workload must agree bit-for-bit between the
// mmap'd tree and the copied tree.
func cmdSnapshotVerify(args []string) error {
	fs := flag.NewFlagSet("snapshot verify", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file (required)")
	nq := fs.Int("nq", 1000, "verification queries to sample")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("snapshot verify: -in is required")
	}
	info, err := snapshot.ReadInfo(*in)
	if err != nil {
		return fmt.Errorf("header/sections: %w", err)
	}
	if !info.CRCOK {
		return fmt.Errorf("crc32c mismatch: file is corrupt")
	}
	opened, err := panda.OpenSnapshot(*in)
	if err != nil {
		return fmt.Errorf("mmap path: %w", err)
	}
	defer opened.Close()
	copied, err := panda.ReadSnapshot(*in)
	if err != nil {
		return fmt.Errorf("copy path: %w", err)
	}
	if opened.Stats() != copied.Stats() {
		return fmt.Errorf("mmap and copy paths disagree on tree structure")
	}
	if opened.Len() > 0 {
		// Query agreement over the data's actual region: alternate between
		// stored points (self-queries must come back at distance 0) and
		// uniform noise scaled to the snapshot's bounding box, so trees
		// over any coordinate range get exercised across their whole extent
		// rather than only near the origin.
		snap, err := snapshot.Read(*in)
		if err != nil {
			return err
		}
		stored, err := kdtree.FromRaw(snap.Raw)
		if err != nil {
			return err
		}
		coords, boxMin, boxMax := stored.PackedPoints().Coords, snap.Raw.BoxMin, snap.Raw.BoxMax
		dims := opened.Dims()
		npts := opened.Len()
		rng := rand.New(rand.NewSource(1))
		q := make([]float32, dims)
		for i := 0; i < *nq; i++ {
			self := i%2 == 0
			if self {
				p := rng.Intn(npts)
				copy(q, coords[p*dims:(p+1)*dims])
			} else {
				for d := range q {
					q[d] = boxMin[d] + rng.Float32()*(boxMax[d]-boxMin[d])
				}
			}
			a := opened.KNN(q, 8)
			b := copied.KNN(q, 8)
			if self && (len(a) == 0 || a[0].Dist2 != 0) {
				return fmt.Errorf("query %d: stored point not found at distance 0", i)
			}
			if len(a) != len(b) {
				return fmt.Errorf("query %d: mmap answered %d neighbors, copy %d", i, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					return fmt.Errorf("query %d neighbor %d: mmap %v, copy %v", i, j, a[j], b[j])
				}
			}
		}
	}
	fmt.Printf("OK: %d points, %d nodes, crc32c valid, mmap and copy paths bit-identical over %d queries\n",
		info.Points, info.Nodes, *nq)
	return nil
}
