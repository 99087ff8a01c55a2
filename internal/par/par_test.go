package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilAndZeroPoolsAreSequential(t *testing.T) {
	var nilPool *Pool
	var zero Pool
	if nilPool.Workers() != 1 || zero.Workers() != 1 {
		t.Fatalf("nil/zero pool workers = %d/%d, want 1", nilPool.Workers(), zero.Workers())
	}
	order := []int{}
	nilPool.ForChunks(10, 3, func(c, lo, hi int) { order = append(order, c) })
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("chunk visits %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sequential pool must visit chunks in order: %v", order)
		}
	}
}

func TestNewPoolClampsToGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	if w := NewPool(64).Workers(); w != 2 {
		t.Fatalf("NewPool(64).Workers() = %d with GOMAXPROCS=2", w)
	}
	if w := NewPool(0).Workers(); w != 1 {
		t.Fatalf("NewPool(0).Workers() = %d, want 1", w)
	}
}

// TestForChunksCoversExactlyOnce: every index in [0,n) is visited exactly
// once with chunk boundaries that are a pure function of (n, chunk).
func TestForChunksCoversExactlyOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, n := range []int{0, 1, 5, 1000, 4097} {
		for _, chunk := range []int{1, 7, 1024} {
			seen := make([]int32, n)
			p := NewPool(8)
			p.ForChunks(n, chunk, func(c, lo, hi int) {
				if lo != c*chunk {
					t.Errorf("chunk %d starts at %d, want %d", c, lo, c*chunk)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, s := range seen {
				if s != 1 {
					t.Fatalf("n=%d chunk=%d: index %d visited %d times", n, chunk, i, s)
				}
			}
		}
	}
}

// TestChunkBoundariesIndependentOfWorkers: the (c, lo, hi) triple set must
// be identical whatever the worker count — this is what lets chunk-ordered
// reductions stay bit-identical under real parallelism.
func TestChunkBoundariesIndependentOfWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const n, chunk = 10_000, 257
	collect := func(workers int) map[[3]int]bool {
		var mu sync.Mutex
		set := make(map[[3]int]bool)
		NewPool(workers).ForChunks(n, chunk, func(c, lo, hi int) {
			mu.Lock()
			set[[3]int{c, lo, hi}] = true
			mu.Unlock()
		})
		return set
	}
	one, eight := collect(1), collect(8)
	if len(one) != len(eight) {
		t.Fatalf("chunk count differs: %d vs %d", len(one), len(eight))
	}
	for k := range one {
		if !eight[k] {
			t.Fatalf("chunk %v missing under 8 workers", k)
		}
	}
}

func TestForEachCoversExactlyOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const n = 1000
	seen := make([]int32, n)
	NewPool(8).ForEach(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d visited %d times", i, s)
		}
	}
}
