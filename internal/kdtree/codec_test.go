package kdtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"panda/internal/geom"
)

// codecTree builds a deterministic test tree.
func codecTree(t *testing.T, n, dims int) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	coords := make([]float32, n*dims)
	for i := range coords {
		coords[i] = rng.Float32()
	}
	return Build(geom.FromCoords(coords, dims), nil, Options{Threads: 2})
}

// TestRawRoundTrip verifies a tree rebuilt from its Raw form answers
// queries bit-identically to the original.
func TestRawRoundTrip(t *testing.T) {
	tree := codecTree(t, 5000, 3)
	got, err := FromRaw(tree.Raw())
	if err != nil {
		t.Fatalf("FromRaw: %v", err)
	}
	if gs, ws := got.Stats(), tree.Stats(); gs != ws {
		t.Fatalf("stats differ: got %+v want %+v", gs, ws)
	}
	rng := rand.New(rand.NewSource(7))
	q := make([]float32, 3)
	sw := tree.NewSearcher()
	sg := got.NewSearcher()
	for i := 0; i < 500; i++ {
		for d := range q {
			q[d] = rng.Float32()
		}
		want, _ := sw.Search(q, 8, Inf2, nil)
		have, _ := sg.Search(q, 8, Inf2, nil)
		if len(want) != len(have) {
			t.Fatalf("query %d: %d vs %d results", i, len(have), len(want))
		}
		for j := range want {
			if want[j] != have[j] {
				t.Fatalf("query %d result %d: %v vs %v", i, j, have[j], want[j])
			}
		}
		wr, _ := sw.RadiusSearch(q, 0.01, nil)
		hr, _ := sg.RadiusSearch(q, 0.01, nil)
		if len(wr) != len(hr) {
			t.Fatalf("radius query %d: %d vs %d results", i, len(hr), len(wr))
		}
	}
}

// TestRawRoundTripEncodedNodes forces the portable (non-reinterpreting)
// node decode path by copying NodesLE to a misaligned buffer.
func TestRawRoundTripEncodedNodes(t *testing.T) {
	tree := codecTree(t, 1000, 2)
	raw := tree.Raw()
	mis := make([]byte, len(raw.NodesLE)+1)
	copy(mis[1:], raw.NodesLE)
	raw.NodesLE = mis[1:]
	got, err := FromRaw(raw)
	if err != nil {
		t.Fatalf("FromRaw with misaligned nodes: %v", err)
	}
	q := []float32{0.5, 0.5}
	want := tree.KNN(q, 5)
	have := got.KNN(q, 5)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("result %d: %v vs %v", i, have[i], want[i])
		}
	}
}

// TestFromRawEmpty round-trips the zero-point tree.
func TestFromRawEmpty(t *testing.T) {
	tree := Build(geom.NewPoints(0, 4), nil, Options{})
	got, err := FromRaw(tree.Raw())
	if err != nil {
		t.Fatalf("FromRaw(empty): %v", err)
	}
	if got.Len() != 0 || got.KNN([]float32{1, 2, 3, 4}, 3) != nil {
		t.Fatalf("empty round trip answered a query")
	}
}

// mutateNode rewrites one field of one node record in a copied Raw.
func mutateNode(raw Raw, ni, field int, v int32) Raw {
	nodes := append([]byte(nil), raw.NodesLE...)
	binary.LittleEndian.PutUint32(nodes[ni*NodeBytes+field*4:], uint32(v))
	raw.NodesLE = nodes
	return raw
}

// TestFromRawRejectsHostile feeds structurally broken raws and expects an
// error from every one — never a panic, never a tree.
func TestFromRawRejectsHostile(t *testing.T) {
	tree := codecTree(t, 2000, 3)
	base := tree.Raw()
	nn := len(base.NodesLE) / NodeBytes
	n := base.IDs.Len()

	cases := map[string]func() Raw{
		"bad dims": func() Raw { r := base; r.Dims = 0; return r },
		"coords not multiple": func() Raw {
			r := base
			r.Coords = base.Coords[:len(base.Coords)-1]
			return r
		},
		"ids mismatch": func() Raw { r := base; r.IDs = base.IDs.Slice(0, n-1); return r },
		"wide ids mismatch": func() Raw {
			r := base
			r.IDs = IDTable{Wide: base.IDs.Int64s()[:n-1]}
			return r
		},
		"ids in both forms": func() Raw {
			r := base
			r.IDs.Wide = base.IDs.Int64s()
			return r
		},
		"narrow ids overflow": func() Raw {
			r := base
			r.IDs.Base = math.MaxInt64 - 100
			return r
		},
		"root oob": func() Raw { r := base; r.Root = int32(nn); return r },
		"root negative": func() Raw {
			r := base
			r.Root = -1
			return r
		},
		"split bounds short": func() Raw { r := base; r.SplitBounds = base.SplitBounds[:4]; return r },
		"box short":          func() Raw { r := base; r.BoxMin = base.BoxMin[:1]; return r },
		"node child cycle":   func() Raw { return mutateNode(base, int(base.Root), 2, base.Root) },
		"node child oob":     func() Raw { return mutateNode(base, int(base.Root), 2, int32(nn)) },
		"node dim oob":       func() Raw { return mutateNode(base, int(base.Root), 0, 99) },
		"leaf range oob": func() Raw {
			// Find a leaf and push its end past the point count.
			for ni := 0; ni < nn; ni++ {
				if int32(binary.LittleEndian.Uint32(base.NodesLE[ni*NodeBytes:])) == leafDim {
					return mutateNode(base, ni, 5, int32(n+1))
				}
			}
			panic("no leaf")
		},
		"height lies":     func() Raw { r := base; r.Height++; return r },
		"max bucket lies": func() Raw { r := base; r.MaxBucket++; return r },
		"box excludes points": func() Raw {
			r := base
			bm := append([]float32(nil), base.BoxMin...)
			bm[0] = base.BoxMax[0] // min raised to max: most points fall outside
			r.BoxMin = bm
			return r
		},
		"box not finite": func() Raw {
			r := base
			bm := append([]float32(nil), base.BoxMin...)
			bm[0] = float32(math.Inf(-1))
			r.BoxMin = bm
			return r
		},
		"nan coord": func() Raw {
			r := base
			c := append([]float32(nil), base.Coords...)
			c[0] = float32(math.NaN())
			r.Coords = c
			return r
		},
		"nan split bound": func() Raw {
			r := base
			sb := append([]float32(nil), base.SplitBounds...)
			sb[int(base.Root)*4] = float32(math.NaN())
			r.SplitBounds = sb
			return r
		},
		"empty with nodes": func() Raw {
			r := base
			r.Coords = nil
			r.IDs = IDTable{}
			return r
		},
	}
	for name, mk := range cases {
		if _, err := FromRaw(mk()); err == nil {
			t.Errorf("%s: FromRaw accepted a broken raw", name)
		}
	}
}

// TestStatsCached verifies the O(1) Stats matches a recount over the node
// records (the satellite fix: Stats must not depend on a per-call walk).
func TestStatsCached(t *testing.T) {
	tree := codecTree(t, 12345, 5)
	s := tree.Stats()
	raw := tree.Raw()
	leaves, sum, maxB := 0, 0, 0
	for ni := 0; ni < len(raw.NodesLE)/NodeBytes; ni++ {
		rec := raw.NodesLE[ni*NodeBytes:]
		if int32(binary.LittleEndian.Uint32(rec)) != leafDim {
			continue
		}
		b := int(int32(binary.LittleEndian.Uint32(rec[20:])) - int32(binary.LittleEndian.Uint32(rec[16:])))
		leaves++
		sum += b
		if b > maxB {
			maxB = b
		}
	}
	if s.Leaves != leaves || s.MaxBucket != maxB {
		t.Fatalf("cached stats %+v, recount leaves=%d maxBucket=%d", s, leaves, maxB)
	}
	if want := float64(sum) / float64(leaves); s.MeanBucket != want {
		t.Fatalf("cached mean bucket %v, recount %v", s.MeanBucket, want)
	}
}
