package sample

import "panda/internal/geom"

// locateBlockLen is how many values HistogramInto gathers per locateBlock
// call: 1 KiB of stack.
const locateBlockLen = 256

// useKernel selects the amd64 block kernel (AVX2 compares, POPCNT counts).
// Tests clear it to run the Go fallback. It is a flag, not a swappable
// function, because a call through a function value would move
// HistogramInto's block buffer to the heap.
var useKernel = geom.CPU.AVX2 && geom.CPU.POPCNT

// locateBlock adds one to counts[b] for the bin b = LocateScan(v) of every
// value v in vals, which is not empty. With the kernel, one locateAVX2 call
// does the whole block: per value, the block index is the popcount of the
// 8-wide compare masks over all of Sub, and the bin is the start of that
// block's 32-wide window of Points plus the popcount over the window.
func (iv Intervals) locateBlock(vals []float32, counts []int64) {
	if useKernel && iv.subPad != nil {
		counts = counts[:len(iv.Points)+1] // the kernel writes counts[:Bins()]
		locateAVX2(&vals[0], len(vals), &iv.subPad[0], len(iv.subPad)/8, &iv.pointsPad[0], &counts[0])
		return
	}
	for _, v := range vals {
		counts[iv.LocateScan(v)]++
	}
}
