//go:build !amd64

package sample

func locateAVX2(vals *float32, n int, sub *float32, groups int, points *float32, counts *int64) {
	panic("sample: AVX2 kernel not built")
}
