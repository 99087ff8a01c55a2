package snapshot

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"panda/internal/core"
	"panda/internal/geom"
	"panda/internal/kdtree"
)

// buildTestTree constructs a deterministic tree for round-trip tests.
func buildTestTree(n, dims int) *kdtree.Tree {
	rng := rand.New(rand.NewSource(11))
	coords := make([]float32, n*dims)
	for i := range coords {
		coords[i] = rng.Float32() * 100
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i) * 3
	}
	return kdtree.Build(geom.FromCoords(coords, dims), ids, kdtree.Options{Threads: 2})
}

// writeTestSnapshot writes tree (and optional cluster meta) to a temp file.
func writeTestSnapshot(t *testing.T, tree *kdtree.Tree, meta *ClusterMeta) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.pnds")
	if err := WriteFile(path, &Data{Raw: tree.Raw(), Cluster: meta}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

// checkIdentical asserts both trees answer a mixed workload bit-identically.
func checkIdentical(t *testing.T, want, got *kdtree.Tree, queries int) {
	t.Helper()
	dims := want.Dims()
	rng := rand.New(rand.NewSource(3))
	q := make([]float32, dims)
	sw := want.NewSearcher()
	sg := got.NewSearcher()
	for i := 0; i < queries; i++ {
		for d := range q {
			q[d] = rng.Float32() * 100
		}
		if i%3 == 2 {
			w, _ := sw.RadiusSearch(q, 25, nil)
			g, _ := sg.RadiusSearch(q, 25, nil)
			if len(w) != len(g) {
				t.Fatalf("radius %d: %d vs %d results", i, len(g), len(w))
			}
			for j := range w {
				if w[j] != g[j] {
					t.Fatalf("radius %d result %d: %v vs %v", i, j, g[j], w[j])
				}
			}
			continue
		}
		w, _ := sw.Search(q, 5, kdtree.Inf2, nil)
		g, _ := sg.Search(q, 5, kdtree.Inf2, nil)
		if len(w) != len(g) {
			t.Fatalf("knn %d: %d vs %d results", i, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("knn %d result %d: %v vs %v", i, j, g[j], w[j])
			}
		}
	}
}

func TestRoundTripOpenAndRead(t *testing.T) {
	tree := buildTestTree(20000, 3)
	path := writeTestSnapshot(t, tree, nil)

	open, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer open.Close()
	if hostLittleEndian && !open.ZeroCopy {
		t.Errorf("Open on a little-endian host did not map zero-copy")
	}
	ot, err := kdtree.FromRaw(open.Raw)
	if err != nil {
		t.Fatalf("FromRaw(open): %v", err)
	}

	read, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if read.ZeroCopy {
		t.Errorf("Read returned a zero-copy snapshot")
	}
	rt, err := kdtree.FromRaw(read.Raw)
	if err != nil {
		t.Fatalf("FromRaw(read): %v", err)
	}

	checkIdentical(t, tree, ot, 400)
	checkIdentical(t, tree, rt, 400)
}

func TestRoundTripEmptyTree(t *testing.T) {
	tree := kdtree.Build(geom.NewPoints(0, 7), nil, kdtree.Options{})
	path := writeTestSnapshot(t, tree, nil)
	for _, load := range []func(string) (*Snapshot, error){Open, Read} {
		s, err := load(path)
		if err != nil {
			t.Fatalf("load empty: %v", err)
		}
		got, err := kdtree.FromRaw(s.Raw)
		if err != nil {
			t.Fatalf("FromRaw empty: %v", err)
		}
		if got.Len() != 0 {
			t.Fatalf("empty tree has %d points", got.Len())
		}
		s.Close()
	}
}

func TestClusterSectionRoundTrip(t *testing.T) {
	tree := buildTestTree(500, 2)
	meta := &ClusterMeta{
		Rank: 1, Ranks: 4, TotalPoints: 2000, GlobalRoot: 0,
		GlobalNodes: []core.GlobalNode{
			{Dim: 0, Median: 0.5, Left: 1, Right: 2},
			{Dim: 1, Median: 0.25, Left: 3, Right: 4},
			{Dim: 1, Median: 0.75, Left: 5, Right: 6},
			{Dim: -1, Rank: 0}, {Dim: -1, Rank: 1}, {Dim: -1, Rank: 2}, {Dim: -1, Rank: 3},
		},
	}
	path := writeTestSnapshot(t, tree, meta)
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	got := s.Cluster
	if got == nil {
		t.Fatal("cluster section missing after round trip")
	}
	if got.Rank != 1 || got.Ranks != 4 || got.TotalPoints != 2000 || len(got.GlobalNodes) != 7 {
		t.Fatalf("cluster meta mangled: %+v", got)
	}
	if got.GlobalNodes[2].Median != 0.75 || got.GlobalNodes[6].Rank != 3 {
		t.Fatalf("global nodes mangled: %+v", got.GlobalNodes)
	}
	if _, err := core.NewGlobalTree(got.GlobalNodes, got.GlobalRoot, 2); err != nil {
		t.Fatalf("restored global tree rejected: %v", err)
	}
}

// TestCorruptionRejected flips, truncates, and rewrites snapshot bytes and
// expects every mutation to be rejected with an error (not a panic) by the
// full decode+FromRaw pipeline.
func TestCorruptionRejected(t *testing.T) {
	tree := buildTestTree(3000, 3)
	path := writeTestSnapshot(t, tree, nil)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	decode := func(data []byte) error {
		for _, copy := range []bool{true, false} {
			s, err := Decode(data, copy)
			if err != nil {
				return err
			}
			if _, err := kdtree.FromRaw(s.Raw); err != nil {
				return err
			}
		}
		return nil
	}
	if err := decode(append([]byte(nil), good...)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	t.Run("flip each region", func(t *testing.T) {
		// One flip inside every 512-byte window must be caught by the CRC
		// (or an earlier structural check).
		for off := 0; off < len(good); off += 512 {
			mut := append([]byte(nil), good...)
			mut[off] ^= 0x40
			if decode(mut) == nil {
				t.Fatalf("accepted snapshot with flipped byte at %d", off)
			}
		}
		// And the trailer bytes themselves.
		for off := len(good) - trailerSize; off < len(good); off++ {
			mut := append([]byte(nil), good...)
			mut[off] ^= 0x40
			if decode(mut) == nil {
				t.Fatalf("accepted snapshot with flipped trailer byte at %d", off)
			}
		}
	})

	t.Run("truncations", func(t *testing.T) {
		for _, n := range []int{0, 1, minFileSize - 1, headerSize, len(good) / 2, len(good) - 1} {
			if decode(good[:n]) == nil {
				t.Fatalf("accepted snapshot truncated to %d bytes", n)
			}
		}
	})

	t.Run("section table attacks", func(t *testing.T) {
		le := binary.LittleEndian
		attack := func(name string, mutate func(mut []byte)) {
			mut := append([]byte(nil), good...)
			mutate(mut)
			// Re-seal the CRC so only the structural check can save us.
			le.PutUint32(mut[len(mut)-trailerSize:], crcOf(mut))
			if decode(mut) == nil {
				t.Errorf("%s: accepted", name)
			}
		}
		attack("points section beyond EOF", func(mut []byte) {
			le.PutUint64(mut[headerSize+8:], uint64(len(mut))) // offset of first section
		})
		attack("section length overflow", func(mut []byte) {
			le.PutUint64(mut[headerSize+16:], ^uint64(0)>>1)
		})
		attack("misaligned section", func(mut []byte) {
			off := le.Uint64(mut[headerSize+8:])
			le.PutUint64(mut[headerSize+8:], off+4)
		})
		attack("duplicate section id", func(mut []byte) {
			le.PutUint32(mut[headerSize+tableRow:], le.Uint32(mut[headerSize:]))
		})
		attack("huge point count", func(mut []byte) {
			le.PutUint64(mut[32:], 1<<50)
		})
		attack("node count mismatch", func(mut []byte) {
			le.PutUint64(mut[40:], le.Uint64(mut[40:])+1)
		})
		attack("root out of range", func(mut []byte) {
			le.PutUint32(mut[48:], 1<<30)
		})
		attack("height lie", func(mut []byte) {
			le.PutUint32(mut[52:], le.Uint32(mut[52:])+1)
		})
		attack("bogus split policy", func(mut []byte) {
			mut[64] = 200
		})
		attack("cluster flag without section", func(mut []byte) {
			le.PutUint32(mut[28:], flagCluster)
		})
	})
}

func crcOf(data []byte) uint32 {
	return crc32.Checksum(data[:len(data)-trailerSize], castagnoli)
}

func TestReadInfo(t *testing.T) {
	tree := buildTestTree(1234, 3)
	path := writeTestSnapshot(t, tree, nil)
	info, err := ReadInfo(path)
	if err != nil {
		t.Fatalf("ReadInfo: %v", err)
	}
	if info.Points != 1234 || info.Dims != 3 || !info.CRCOK || len(info.Sections) != 5 {
		t.Fatalf("info mangled: %+v", info)
	}
	st := tree.Stats()
	if info.Height != st.Height || info.MaxBucket != st.MaxBucket || info.Nodes != uint64(st.Nodes) {
		t.Fatalf("info disagrees with tree stats: %+v vs %+v", info, st)
	}
}

// TestWriteFileAtomicOverwrite locks in the temp+rename write: overwriting
// the very snapshot a process has mapped must not disturb the live mapping
// (the old inode survives under it), and the name must atomically point at
// the new content afterwards.
func TestWriteFileAtomicOverwrite(t *testing.T) {
	old := buildTestTree(4000, 3)
	path := filepath.Join(t.TempDir(), "tree.pnds")
	if err := WriteFile(path, &Data{Raw: old.Raw()}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mapped, err := kdtree.FromRaw(s.Raw)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite the file while the mapping is live — this used to truncate
	// the mapped inode (SIGBUS on next touch); with rename-into-place the
	// mapping keeps the old bytes.
	repl := buildTestTree(1234, 2)
	if err := WriteFile(path, &Data{Raw: repl.Raw()}); err != nil {
		t.Fatalf("overwrite while mapped: %v", err)
	}
	checkIdentical(t, old, mapped, 200)

	// The name now resolves to the new snapshot.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Raw.Dims != 2 || s2.Raw.IDs.Len() != 1234 {
		t.Fatalf("reopened snapshot has %d points of dim %d, want the replacement", s2.Raw.IDs.Len(), s2.Raw.Dims)
	}
	// No temp droppings left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after overwrite, want 1", len(ents))
	}
}
