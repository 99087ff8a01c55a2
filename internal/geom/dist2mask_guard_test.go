//go:build linux || darwin || freebsd

package geom

import (
	"fmt"
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// TestDist2MaskStopsAtLeafEnd places each block so that its last row ends
// exactly where a PROT_NONE page begins, for n = 1–64, strides from n up
// and dims 1–17: a kernel that reads one float past the block's last point
// faults. Both the dispatching kernel (AVX2 where the CPU has it) and
// Dist2MaskGo run, and both must still meet the mask contract; Prefetch of
// the same block runs too.
func TestDist2MaskStopsAtLeafEnd(t *testing.T) {
	page := syscall.Getpagesize()
	const maxFloats = 16*(MaskBlock+13) + MaskBlock
	dataPages := (maxFloats*4 + page - 1) / page
	mem, err := syscall.Mmap(-1, 0, (dataPages+1)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	guard := dataPages * page
	if err := syscall.Mprotect(mem[guard:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	r := &kernelRNG{s: 21}
	kernels := []struct {
		name string
		fn   func(q, rows []float32, stride, n int, out []float32, bound float32) uint64
	}{{"dispatch", Dist2Mask}, {"go", Dist2MaskGo}}
	for dims := 1; dims <= 17; dims++ {
		for n := 1; n <= MaskBlock; n++ {
			for _, stride := range []int{n, n + 1, n + 13} {
				q, pts := randBlock(r, n, dims)
				src := leafRows(pts, n, dims, stride)
				off := guard - len(src)*4
				rows := unsafe.Slice((*float32)(unsafe.Pointer(&mem[off])), len(src))
				copy(rows, src)
				Prefetch(rows) // a hint up to the guard page must not fault either
				exact := make([]float32, n)
				for i := range exact {
					exact[i] = Dist2(q, pts[i*dims:(i+1)*dims])
				}
				for _, bound := range []float32{20, math.MaxFloat32} {
					for _, k := range kernels {
						const poison = -7
						out := make([]float32, n+9)
						for i := range out {
							out[i] = poison
						}
						m := k.fn(q, rows, stride, n, out, bound)
						checkMask(t, fmt.Sprintf("%s dims=%d n=%d stride=%d", k.name, dims, n, stride), m, out, exact, bound, poison)
					}
				}
			}
		}
	}
}
