//go:build !amd64

package geom

// detectCPU reports no SIMD kernel off amd64: Dist2Mask always runs
// Dist2MaskGo.
func detectCPU() CPUFeatures { return CPUFeatures{} }

func dist2MaskAVX2(q, rows, out *float32, n, dims, stride int, bound float32) uint64 {
	panic("geom: AVX2 kernel not built")
}

// Prefetch is a no-op off amd64: it is only a cache hint.
func Prefetch(b []float32) {}
