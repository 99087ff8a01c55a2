//go:build !amd64

package geom

// haveAVX2 is false off amd64: Dist2Mask always runs Dist2MaskGo.
const haveAVX2 = false

func dist2MaskAVX2(q, pts, out *float32, n, dims int, bound float32) uint64 {
	panic("geom: AVX2 kernel not built")
}
