package geom

// CPUFeatures lists the instruction-set extensions the SIMD kernels of this
// package and of internal/sample select on.
type CPUFeatures struct {
	// AVX2 is set when the CPU has AVX2 and the OS saves the YMM registers.
	AVX2 bool
	// POPCNT is set when the CPU has the POPCNT instruction.
	POPCNT bool
}

// CPU is this machine's CPUFeatures, detected once at start-up through
// CPUID and XGETBV on amd64; off amd64 every field is false.
var CPU = detectCPU()
