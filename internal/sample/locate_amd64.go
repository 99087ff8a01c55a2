//go:build amd64

package sample

// locateAVX2 is locateBlock's kernel for n ≥ 1 values and groups ≥ 1
// 8-wide groups of the padded Sub: it reads vals[:n], sub[:8*groups] and
// a 32-wide window of the padded Points, and increments counts[bin] for
// each value.
//
//go:noescape
func locateAVX2(vals *float32, n int, sub *float32, groups int, points *float32, counts *int64)
