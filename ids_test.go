package panda

import (
	"testing"

	"panda/internal/data"
	"panda/internal/kdtree"
)

// TestBatchNarrowWideIdentical: the batched engine answers identically
// whether the tree's ids sit in the narrow (32-bit offset) or the wide
// (int64) id table.
func TestBatchNarrowWideIdentical(t *testing.T) {
	for _, dims := range []int{3, 10} {
		d := data.Uniform(30000, dims, 21)
		ids := make([]int64, d.Points.Len())
		for i := range ids {
			ids[i] = 7_000_000_000 + 5*int64(i)
		}
		narrow, err := Build(d.Points.Coords, dims, ids, &BuildOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		raw := narrow.t.Raw()
		if !raw.IDs.Narrow() {
			t.Fatal("ids spanning 150k values built a wide table")
		}
		raw.IDs = kdtree.IDTable{Wide: raw.IDs.Int64s()}
		kt, err := kdtree.FromRaw(raw)
		if err != nil {
			t.Fatal(err)
		}
		wide := &Tree{t: kt, threads: 2}
		if narrow.Fingerprint() != wide.Fingerprint() {
			t.Fatalf("dims=%d: fingerprints differ", dims)
		}
		queries := data.Uniform(600, dims, 22).Points.Coords
		a, err := narrow.KNNBatch(queries, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wide.KNNBatch(queries, 8)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range a {
			if len(a[qi]) != len(b[qi]) {
				t.Fatalf("dims=%d query %d: %d vs %d neighbors", dims, qi, len(a[qi]), len(b[qi]))
			}
			for j := range a[qi] {
				if a[qi][j] != b[qi][j] {
					t.Fatalf("dims=%d query %d neighbor %d: %+v vs %+v", dims, qi, j, a[qi][j], b[qi][j])
				}
			}
		}
	}
}
