package panda

import (
	"os"
	"path/filepath"
	"testing"
)

// snapshotBenchPoints matches the cosmo3d serving benchmark scale
// (bench_knnbatch_test.go): 200k 3-D points.
const snapshotBenchPoints = 200_000

// benchCoords generates the cosmo3d benchmark dataset once per run.
func benchCoords(b *testing.B) ([]float32, int) {
	b.Helper()
	coords, dims, _, err := GenerateDataset("cosmo", snapshotBenchPoints, 1)
	if err != nil {
		b.Fatal(err)
	}
	return coords, dims
}

// BenchmarkBuild is the cold-start cost a snapshot amortizes away: full
// tree construction from raw points (single thread, the paper's default
// options — the same configuration the snapshot in BenchmarkSnapshotOpen
// was written from).
func BenchmarkBuild(b *testing.B) {
	coords, dims := benchCoords(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := Build(coords, dims, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if tree.Len() != snapshotBenchPoints {
			b.Fatal("short build")
		}
	}
}

// BenchmarkSnapshotOpen is the warm-start cost: mmap the snapshot, validate
// (CRC, section bounds, node graph, finite coords), and stand the tree up
// zero-copy. The BENCH_snapshot.json ratio against BenchmarkBuild is the
// restart-speedup headline.
func BenchmarkSnapshotOpen(b *testing.B) {
	coords, dims := benchCoords(b)
	tree, err := Build(coords, dims, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.pnds")
	if err := tree.WriteSnapshot(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if warm.Len() != snapshotBenchPoints {
			b.Fatal("short snapshot")
		}
		warm.Close()
	}
	// Reported after the loop: ResetTimer discards metrics reported before it.
	if st, err := os.Stat(path); err == nil {
		b.ReportMetric(float64(st.Size()), "file-bytes")
	}
}

// BenchmarkSnapshotRead is the copying fallback path, for the gap between
// mmap warm start and a full deserialize.
func BenchmarkSnapshotRead(b *testing.B) {
	coords, dims := benchCoords(b)
	tree, err := Build(coords, dims, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.pnds")
	if err := tree.WriteSnapshot(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := ReadSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if warm.Len() != snapshotBenchPoints {
			b.Fatal("short snapshot")
		}
	}
}

// BenchmarkSnapshotWrite rounds out the cycle: serializing a built 200k
// tree to disk.
func BenchmarkSnapshotWrite(b *testing.B) {
	coords, dims := benchCoords(b)
	tree, err := Build(coords, dims, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.WriteSnapshot(filepath.Join(dir, "bench.pnds")); err != nil {
			b.Fatal(err)
		}
	}
}
