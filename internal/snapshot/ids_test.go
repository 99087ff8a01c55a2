package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"panda/internal/data"
	"panda/internal/kdtree"
)

// loaders are the two ways to open a snapshot file.
var loaders = []struct {
	name string
	load func(string) (*Snapshot, error)
}{{"open", Open}, {"read", Read}}

// v1Golden records a version 1 or 2 snapshot in testdata: how its tree
// was built, its fingerprint, and its answers (id, float32 distance bits) to
// data.Uniform(16, dims, 99) at k and at radius² r2.
type v1Golden struct {
	File        string  `json:"file"`
	Dims        int     `json:"dims"`
	Points      int     `json:"points"`
	Seed        uint64  `json:"seed"`
	IDBase      int64   `json:"id_base"`
	IDStride    int64   `json:"id_stride"`
	Bucket      int     `json:"bucket"` // 0: 8, the bucket size of every version 1 file
	Fingerprint string  `json:"fingerprint"`
	K           int     `json:"k"`
	R2          float32 `json:"r2"`
	Answers     []struct {
		KNN    [][2]uint64 `json:"knn"`
		Radius [][2]uint64 `json:"radius"`
	} `json:"answers"`
}

// TestV1SnapshotsOpen: version 1 files, written before the narrow id
// section existed, open on both paths as wide trees with their recorded
// fingerprints and answers. Rebuilding the same points today gives a narrow
// tree with the same fingerprint and answers.
func TestV1SnapshotsOpen(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "v1-golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var goldens []v1Golden
	if err := json.Unmarshal(b, &goldens); err != nil {
		t.Fatal(err)
	}
	if len(goldens) == 0 {
		t.Fatal("no golden files")
	}
	for _, g := range goldens {
		path := filepath.Join("testdata", g.File)
		info, err := ReadInfo(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != 1 || !info.CRCOK || fmt.Sprintf("%016x", info.Fingerprint) != g.Fingerprint {
			t.Fatalf("%s: inspect says version %d, crc ok %v, fingerprint %016x; want 1, true, %s",
				g.File, info.Version, info.CRCOK, info.Fingerprint, g.Fingerprint)
		}
		for _, l := range loaders {
			s, err := l.load(path)
			if err != nil {
				t.Fatalf("%s %s: %v", l.name, g.File, err)
			}
			if l.name == "open" && hostLittleEndian && !s.ZeroCopy {
				t.Errorf("%s: Open of a version 1 file is not zero-copy", g.File)
			}
			tr, err := kdtree.FromRaw(s.Raw)
			if err != nil {
				t.Fatalf("%s %s: %v", l.name, g.File, err)
			}
			if tr.IDs().Narrow() {
				t.Fatalf("%s %s: version 1 ids opened narrow", l.name, g.File)
			}
			checkGolden(t, l.name+" "+g.File, tr, g)
			s.Close()
		}

		d := data.Uniform(g.Points, g.Dims, g.Seed)
		var ids []int64
		if g.IDStride != 0 {
			ids = make([]int64, g.Points)
			for i := range ids {
				ids[i] = g.IDBase + g.IDStride*int64(i)
			}
		}
		tr := kdtree.Build(d.Points, ids, kdtree.Options{BucketSize: 8})
		if !tr.IDs().Narrow() {
			t.Fatalf("%s: rebuilt tree is wide", g.File)
		}
		checkGolden(t, "rebuilt "+g.File, tr, g)
	}
}

func checkGolden(t *testing.T, what string, tr *kdtree.Tree, g v1Golden) {
	t.Helper()
	if fp := fmt.Sprintf("%016x", tr.Raw().Fingerprint()); fp != g.Fingerprint {
		t.Fatalf("%s: fingerprint %s, recorded %s", what, fp, g.Fingerprint)
	}
	qs := data.Uniform(len(g.Answers), g.Dims, 99)
	s := tr.NewSearcher()
	same := func(kind string, qi int, got []kdtree.Neighbor, want [][2]uint64) {
		if len(got) != len(want) {
			t.Fatalf("%s: query %d %s: %d neighbors, recorded %d", what, qi, kind, len(got), len(want))
		}
		for i, nb := range got {
			if uint64(nb.ID) != want[i][0] || uint64(math.Float32bits(nb.Dist2)) != want[i][1] {
				t.Fatalf("%s: query %d %s neighbor %d is %+v, recorded %v", what, qi, kind, i, nb, want[i])
			}
		}
	}
	for qi, a := range g.Answers {
		q := qs.Points.At(qi)
		knn, _ := s.Search(q, g.K, kdtree.Inf2, nil)
		same("knn", qi, knn, a.KNN)
		rad, _ := s.RadiusSearch(q, g.R2, nil)
		same("radius", qi, rad, a.Radius)
	}
}

// TestIDFormsRoundTrip: a narrow tree (ids 2^33 + 2i) and a wide one (ids
// i<<40) both round-trip through both load paths in their own form, with
// the inspect fingerprint (FingerprintSections) equal to Raw.Fingerprint,
// and the narrow file smaller by 4 bytes per point less the 8-byte base.
func TestIDFormsRoundTrip(t *testing.T) {
	const n = 20000
	d := data.Cosmo(n, 4)
	narrowIDs := make([]int64, n)
	wideIDs := make([]int64, n)
	for i := range wideIDs {
		narrowIDs[i] = 1<<33 + 2*int64(i)
		wideIDs[i] = int64(i) << 40
	}
	sizes := map[bool]int64{}
	for _, narrow := range []bool{true, false} {
		ids := wideIDs
		if narrow {
			ids = narrowIDs
		}
		tree := kdtree.Build(d.Points, ids, kdtree.Options{Threads: 2})
		if tree.IDs().Narrow() != narrow {
			t.Fatalf("ids %d, %d, ...: narrow = %v", ids[0], ids[1], !narrow)
		}
		path := writeTestSnapshot(t, tree, nil)
		info, err := ReadInfo(path)
		if err != nil {
			t.Fatal(err)
		}
		want := tree.Raw().Fingerprint()
		if info.Version != Version || info.Fingerprint != want {
			t.Fatalf("narrow=%v: inspect version %d fingerprint %x, want %d %x", narrow, info.Version, info.Fingerprint, Version, want)
		}
		sizes[narrow] = int64(info.FileSize)
		for _, l := range loaders {
			s, err := l.load(path)
			if err != nil {
				t.Fatal(err)
			}
			if l.name == "open" && hostLittleEndian && !s.ZeroCopy {
				t.Errorf("narrow=%v: Open is not zero-copy", narrow)
			}
			got, err := kdtree.FromRaw(s.Raw)
			if err != nil {
				t.Fatal(err)
			}
			if got.IDs().Narrow() != narrow || got.IDs().Base != tree.IDs().Base {
				t.Fatalf("narrow=%v %s: reopened as narrow=%v base %d", narrow, l.name, got.IDs().Narrow(), got.IDs().Base)
			}
			if fp := s.Raw.Fingerprint(); fp != want {
				t.Fatalf("narrow=%v %s: fingerprint %x, want %x", narrow, l.name, fp, want)
			}
			for i := range n {
				if got.IDs().At(i) != tree.IDs().At(i) {
					t.Fatalf("narrow=%v %s: id %d is %d, want %d", narrow, l.name, i, got.IDs().At(i), tree.IDs().At(i))
				}
			}
			checkIdentical(t, tree, got, 90)
			s.Close()
		}
	}
	if saved := sizes[false] - sizes[true]; saved != 4*n-8 {
		t.Fatalf("narrow file is %d bytes smaller than wide, want %d", saved, 4*n-8)
	}
}

// TestVersion1RejectsIDs32: the narrow id section does not exist in
// version 1, so a version 1 header over one is corrupt.
func TestVersion1RejectsIDs32(t *testing.T) {
	path := writeTestSnapshot(t, buildTestTree(500, 3), nil)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[4:], 1)
	binary.LittleEndian.PutUint32(b[len(b)-trailerSize:], crc32.Checksum(b[:len(b)-trailerSize], castagnoli))
	if _, err := Decode(b, true); err == nil {
		t.Fatal("version 1 file with an ids32 section decoded")
	}
}
