package kdtree

import (
	"fmt"
	"math"
	"unsafe"

	"panda/internal/par"
)

// IDTable is a tree's id column: packed position -> caller id. It has two
// forms. The narrow form is frame-of-reference encoded (one Base plus a
// 32-bit offset per point), which holds any id set spanning fewer than 2^32
// values — every dataset indexed from zero, and every explicit id range up
// to four billion wide — in 4 bytes per point. The wide form is one int64
// per point and holds anything else (e.g. the distributed build's default
// rank<<40 | index ids). Wide non-nil selects the wide form.
//
// Readers go through At, so a hot loop has one code path for both forms;
// the form branch is the same for every point of a tree and predicts
// perfectly.
type IDTable struct {
	// Base and Offsets are the narrow form: id i is Base + int64(Offsets[i]).
	Base    int64
	Offsets []uint32
	// Wide is the wide form, one id per point.
	Wide []int64
}

// At returns the id at packed position i.
func (t IDTable) At(i int) int64 {
	if t.Wide != nil {
		return t.Wide[i]
	}
	return t.Base + int64(t.Offsets[i])
}

// Len returns the number of ids.
func (t IDTable) Len() int {
	if t.Wide != nil {
		return len(t.Wide)
	}
	return len(t.Offsets)
}

// Narrow reports whether t is in the 32-bit offset form.
func (t IDTable) Narrow() bool { return t.Wide == nil }

// Slice returns the ids at packed positions [lo, hi), aliasing t.
func (t IDTable) Slice(lo, hi int) IDTable {
	if t.Wide != nil {
		return IDTable{Wide: t.Wide[lo:hi:hi]}
	}
	return IDTable{Base: t.Base, Offsets: t.Offsets[lo:hi:hi]}
}

// Int64s returns the ids as a fresh int64 slice.
func (t IDTable) Int64s() []int64 {
	out := make([]int64, t.Len())
	for i := range out {
		out[i] = t.At(i)
	}
	return out
}

// validate checks that t holds n ids in exactly one form and that no
// narrow id overflows int64.
func (t IDTable) validate(n int) error {
	if t.Wide != nil {
		if t.Offsets != nil {
			return fmt.Errorf("kdtree: id table holds both a wide and a narrow form")
		}
		if len(t.Wide) != n {
			return fmt.Errorf("kdtree: %d ids for %d points", len(t.Wide), n)
		}
		return nil
	}
	if len(t.Offsets) != n {
		return fmt.Errorf("kdtree: %d ids for %d points", len(t.Offsets), n)
	}
	if t.Base > math.MaxInt64-math.MaxUint32 {
		var hi uint32
		for _, o := range t.Offsets {
			hi = max(hi, o)
		}
		if uint64(hi) > uint64(math.MaxInt64-t.Base) {
			return fmt.Errorf("kdtree: id base %d plus offset %d overflows int64", t.Base, hi)
		}
	}
	return nil
}

// packIDs returns the id column in packed order, where idx maps packed
// position -> input position. With no caller ids the column is idx itself,
// reinterpreted as offsets from 0 — the build's 32-bit index array becomes
// the tree's id table without a copy. Caller ids spanning fewer than 2^32
// values are written over idx in place as offsets from their minimum; any
// wider set gets a fresh wide column. idx must not be used afterwards.
func packIDs(ids []int64, idx []int32, pool *par.Pool) IDTable {
	n := len(idx)
	if n == 0 {
		return IDTable{}
	}
	off := unsafe.Slice((*uint32)(unsafe.Pointer(&idx[0])), n)
	if ids == nil {
		return IDTable{Offsets: off}
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		lo = min(lo, id)
		hi = max(hi, id)
	}
	if uint64(hi)-uint64(lo) <= math.MaxUint32 {
		pool.ForChunks(n, packChunk, func(_, a, b int) {
			for i := a; i < b; i++ {
				off[i] = uint32(ids[idx[i]] - lo)
			}
		})
		return IDTable{Base: lo, Offsets: off}
	}
	wide := make([]int64, n)
	pool.ForChunks(n, packChunk, func(_, a, b int) {
		for i := a; i < b; i++ {
			wide[i] = ids[idx[i]]
		}
	})
	return IDTable{Wide: wide}
}
