// Package data generates the deterministic synthetic datasets that stand in
// for the paper's science inputs (Gadget cosmology snapshots, VPIC plasma
// particles, Daya Bay detector records, SDSS photometry). Each generator
// reproduces the distribution *class* the paper attributes to its dataset —
// the property that actually drives kd-tree behaviour — at sizes scaled to a
// single machine. See DESIGN.md §1 for the substitution argument.
package data

import "math"

// RNG is a small, fast, deterministic generator (xoshiro256** seeded via
// SplitMix64). It exists so experiments are reproducible without importing
// math/rand's global state; the stdlib-only constraint is preserved since
// this is ~40 lines of arithmetic.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 to expand the seed into four non-zero words.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform value in [0,1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Intn returns a uniform value in [0,n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("data: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate (Box–Muller; one value per call,
// the pair's twin is discarded for simplicity — generation is not the
// bottleneck anywhere).
func (r *RNG) Norm() float64 {
	for {
		u1 := r.Float64()
		if u1 > 1e-300 {
			u2 := r.Float64()
			return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		}
	}
}

// PowerLaw returns a variate in [lo,hi] distributed as x^(-alpha)
// (alpha != 1), the classic halo-mass-function shape used by the cosmology
// generator.
func (r *RNG) PowerLaw(alpha, lo, hi float64) float64 {
	u := r.Float64()
	oneMinus := 1 - alpha
	loP := math.Pow(lo, oneMinus)
	hiP := math.Pow(hi, oneMinus)
	return math.Pow(loP+u*(hiP-loP), 1/oneMinus)
}

// Shuffle permutes idx in place (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
