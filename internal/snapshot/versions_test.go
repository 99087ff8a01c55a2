package snapshot

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"panda/internal/data"
	"panda/internal/geom"
	"panda/internal/kdtree"
)

// TestOldSnapshotsMatchFreshBuild: every version 1 and version 2 golden
// file (row-major points, written by the last commit of its format) opens
// on both load paths with its recorded fingerprint and answers, and a
// fresh build of the same points, written as version 3 and reopened on
// both paths, gives the same fingerprint and answers.
func TestOldSnapshotsMatchFreshBuild(t *testing.T) {
	for version, list := range map[uint32]string{1: "v1-golden.json", 2: "v2-golden.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", list))
		if err != nil {
			t.Fatal(err)
		}
		var goldens []v1Golden
		if err := json.Unmarshal(b, &goldens); err != nil {
			t.Fatal(err)
		}
		if len(goldens) == 0 {
			t.Fatalf("%s: no golden files", list)
		}
		for _, g := range goldens {
			old := filepath.Join("testdata", g.File)
			if info, err := ReadInfo(old); err != nil || info.Version != version {
				t.Fatalf("%s: inspect says version %v (%v), want %d", g.File, info.Version, err, version)
			}
			d := data.Uniform(g.Points, g.Dims, g.Seed)
			var ids []int64
			if g.IDStride != 0 {
				ids = make([]int64, g.Points)
				for i := range ids {
					ids[i] = g.IDBase + g.IDStride*int64(i)
				}
			}
			bucket := g.Bucket
			if bucket == 0 {
				bucket = 8
			}
			fresh := writeTestSnapshot(t, kdtree.Build(d.Points, ids, kdtree.Options{BucketSize: bucket}), nil)
			if info, err := ReadInfo(fresh); err != nil || info.Version != Version || fmt.Sprintf("%016x", info.Fingerprint) != g.Fingerprint {
				t.Fatalf("%s rebuilt: inspect says version %v fingerprint %016x (%v), want %d %s",
					g.File, info.Version, info.Fingerprint, err, Version, g.Fingerprint)
			}
			for _, path := range []string{old, fresh} {
				for _, l := range loaders {
					s, err := l.load(path)
					if err != nil {
						t.Fatalf("%s %s: %v", l.name, path, err)
					}
					if s.Raw.RowMajor != (path == old) {
						t.Fatalf("%s %s: RowMajor = %v", l.name, path, s.Raw.RowMajor)
					}
					tr, err := kdtree.FromRaw(s.Raw)
					if err != nil {
						t.Fatalf("%s %s: %v", l.name, path, err)
					}
					checkGolden(t, fmt.Sprintf("%s %s", l.name, path), tr, g)
					s.Close()
				}
			}
		}
	}
}

// TestV3RoundTrip: a tree with a leaf of more than geom.MaskBlock points
// writes as version 3; inspect reports that version and the tree's
// Raw.Fingerprint, Open maps the leaf-major points zero-copy, and both
// load paths answer bit-identically to the built tree.
func TestV3RoundTrip(t *testing.T) {
	pts := data.Uniform(3000, 4, 61).Points
	for i := 0; i < 200; i++ {
		pts.SetAt(i*7, []float32{0.5, 0.5, 0.5, 0.5}) // one leaf of 200 identical points
	}
	tree := kdtree.Build(pts, nil, kdtree.Options{BucketSize: 8, SplitValue: kdtree.SplitMidRange})
	if tree.MaxBucket() <= geom.MaskBlock {
		t.Fatalf("max bucket %d, want one over %d", tree.MaxBucket(), geom.MaskBlock)
	}
	path := writeTestSnapshot(t, tree, nil)
	info, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.Raw().Fingerprint(); info.Version != 3 || info.Fingerprint != want {
		t.Fatalf("inspect says version %d fingerprint %x, want 3 %x", info.Version, info.Fingerprint, want)
	}
	for _, l := range loaders {
		s, err := l.load(path)
		if err != nil {
			t.Fatal(err)
		}
		if l.name == "open" && hostLittleEndian && !s.ZeroCopy {
			t.Errorf("Open of a version 3 file is not zero-copy")
		}
		got, err := kdtree.FromRaw(s.Raw)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, tree, got, 300)
		for _, q := range [][]float32{{0.5, 0.5, 0.5, 0.5}, {0.51, 0.5, 0.49, 0.5}} {
			a, _ := tree.NewSearcher().RadiusSearch(q, 0.01, nil)
			b, _ := got.NewSearcher().RadiusSearch(q, 0.01, nil)
			if len(a) < 200 || len(a) != len(b) {
				t.Fatalf("%s: radius answers of %d and %d points at the duplicate", l.name, len(a), len(b))
			}
		}
		s.Close()
	}
}
