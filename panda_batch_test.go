package panda

import "testing"

// TestKNNBatchLargeMatchesSingle covers the full batched engine: a batch
// large enough to trigger Morton-ordered scheduling (n ≥ queryOrderMin) and
// multiple worker chunks must return, per query, exactly what a standalone
// KNN call returns, in the original query order.
func TestKNNBatchLargeMatchesSingle(t *testing.T) {
	for _, gen := range []string{"cosmo", "dayabay"} {
		coords, dims, _ := genCoords(gen, 5000, 11, t)
		tree, err := Build(coords, dims, nil, &BuildOptions{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		nq := 600 // > queryOrderMin and > several chunks
		queries := coords[:nq*dims]
		batch, err := tree.KNNBatch(queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != nq {
			t.Fatalf("%s: batch size = %d, want %d", gen, len(batch), nq)
		}
		for i := 0; i < nq; i++ {
			single := tree.KNN(queries[i*dims:(i+1)*dims], 5)
			if len(batch[i]) != len(single) {
				t.Fatalf("%s query %d: %d neighbors, want %d", gen, i, len(batch[i]), len(single))
			}
			for j := range single {
				if batch[i][j] != single[j] {
					t.Fatalf("%s query %d neighbor %d: batch %v vs single %v",
						gen, i, j, batch[i][j], single[j])
				}
			}
		}
	}
}

// TestKNNBatchFlatInvariants checks the arena contract: offsets are
// monotone with offsets[0]==0 and offsets[n]==len(flat), each slot is
// sorted by (distance, id), and slots hold exactly min(k, points)
// neighbors.
func TestKNNBatchFlatInvariants(t *testing.T) {
	coords, dims, _ := genCoords("uniform", 1000, 3, t)
	tree, err := Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nq := 300
	flat, offsets, err := tree.KNNBatchFlat(coords[:nq*dims], 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != nq+1 || offsets[0] != 0 || int(offsets[nq]) != len(flat) {
		t.Fatalf("offsets shape: len=%d first=%d last=%d flat=%d",
			len(offsets), offsets[0], offsets[nq], len(flat))
	}
	for i := 0; i < nq; i++ {
		lo, hi := offsets[i], offsets[i+1]
		if hi-lo != 7 {
			t.Fatalf("query %d: %d neighbors, want 7", i, hi-lo)
		}
		for j := lo + 1; j < hi; j++ {
			a, b := flat[j-1], flat[j]
			if a.Dist2 > b.Dist2 || (a.Dist2 == b.Dist2 && a.ID >= b.ID) {
				t.Fatalf("query %d: slot not sorted: %v before %v", i, a, b)
			}
		}
	}
}

// TestKNNBatchEdgeCases: k exceeding the point count clamps to Len; k ≤ 0
// and empty batches return empty results without error.
func TestKNNBatchEdgeCases(t *testing.T) {
	coords, dims, _ := genCoords("uniform", 10, 9, t)
	tree, err := Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := tree.KNNBatch(coords, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, nbrs := range batch {
		if len(nbrs) != 10 {
			t.Fatalf("query %d: %d neighbors, want all 10", i, len(nbrs))
		}
	}
	if batch, err = tree.KNNBatch(coords, 0); err != nil || len(batch) != 10 {
		t.Fatalf("k=0: batch=%d err=%v", len(batch), err)
	}
	for i, nbrs := range batch {
		if len(nbrs) != 0 {
			t.Fatalf("k=0 query %d returned %d neighbors", i, len(nbrs))
		}
	}
	if batch, err = tree.KNNBatch(nil, 3); err != nil || len(batch) != 0 {
		t.Fatalf("empty batch: batch=%d err=%v", len(batch), err)
	}
}

// TestKNNBatchZeroAllocsPerQuery asserts the batch engine's amortized
// allocation count: a whole warmed-up batch performs O(1) allocations
// (arena + offsets + bookkeeping), not O(queries).
func TestKNNBatchZeroAllocsPerQuery(t *testing.T) {
	coords, dims, _ := genCoords("cosmo", 20_000, 13, t)
	tree, err := Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const nq = 2000
	queries := coords[:nq*dims]
	tree.KNNBatch(queries, 5) // warm the searcher pool
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := tree.KNNBatch(queries, 5); err != nil {
			t.Fatal(err)
		}
	})
	perQuery := allocs / nq
	if perQuery > 0.01 {
		t.Fatalf("%v allocations per query (%.0f per batch), want amortized 0", perQuery, allocs)
	}
}

// TestKNNBatchZeroAllocsPerQuery10D is the 10-D twin of
// TestKNNBatchZeroAllocsPerQuery: the ≥4-D leaf scan (the candidate-mask
// kernel and its set-bit walk) allocates nothing per query either.
func TestKNNBatchZeroAllocsPerQuery10D(t *testing.T) {
	coords, dims, _ := genCoords("dayabay", 20_000, 13, t)
	tree, err := Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const nq = 2000
	queries := coords[:nq*dims]
	tree.KNNBatch(queries, 5) // warm the searcher pool
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := tree.KNNBatch(queries, 5); err != nil {
			t.Fatal(err)
		}
	})
	perQuery := allocs / nq
	if perQuery > 0.01 {
		t.Fatalf("%v allocations per query (%.0f per batch), want amortized 0", perQuery, allocs)
	}
}
