// Package geom provides the low-level geometric substrate for PANDA:
// packed point storage, squared-distance kernels (scalar, blocked, and the
// leaf-major candidate-mask kernel the kd-tree's leaf scans run), and
// axis-aligned bounding boxes with point-to-box distance used for kd-tree
// pruning.
//
// Points are stored as a flat []float32 in row-major order (point i occupies
// Coords[i*Dims : (i+1)*Dims]), the layout datasets arrive in. The kd-tree's
// "SIMD packing" step (§III-A iv) stores each leaf bucket leaf-major
// instead, one contiguous row per dimension, which Dist2Mask scans 8
// points per load.
package geom

import (
	"fmt"
	"math"
)

// Points is a packed set of Dims-dimensional float32 points.
// The zero value is an empty point set of zero dimensions; use NewPoints or
// FromCoords for a usable value.
type Points struct {
	Coords []float32 // len == N*Dims, point i at [i*Dims:(i+1)*Dims]
	Dims   int
}

// NewPoints allocates storage for n points of dims dimensions.
func NewPoints(n, dims int) Points {
	if n < 0 || dims <= 0 {
		panic(fmt.Sprintf("geom: invalid point set shape n=%d dims=%d", n, dims))
	}
	return Points{Coords: make([]float32, n*dims), Dims: dims}
}

// FromCoords wraps an existing packed coordinate slice. len(coords) must be
// a multiple of dims.
func FromCoords(coords []float32, dims int) Points {
	if dims <= 0 || len(coords)%dims != 0 {
		panic(fmt.Sprintf("geom: coords length %d not a multiple of dims %d", len(coords), dims))
	}
	return Points{Coords: coords, Dims: dims}
}

// Len returns the number of points.
func (p Points) Len() int {
	if p.Dims == 0 {
		return 0
	}
	return len(p.Coords) / p.Dims
}

// At returns the coordinate slice of point i (aliases the backing array).
func (p Points) At(i int) []float32 {
	return p.Coords[i*p.Dims : (i+1)*p.Dims : (i+1)*p.Dims]
}

// Coord returns coordinate d of point i.
func (p Points) Coord(i, d int) float32 {
	return p.Coords[i*p.Dims+d]
}

// SetAt copies coords into point i.
func (p Points) SetAt(i int, coords []float32) {
	copy(p.Coords[i*p.Dims:(i+1)*p.Dims], coords)
}

// Slice returns the sub-set of points [lo,hi) sharing p's backing array.
func (p Points) Slice(lo, hi int) Points {
	return Points{Coords: p.Coords[lo*p.Dims : hi*p.Dims], Dims: p.Dims}
}

// Clone returns a deep copy.
func (p Points) Clone() Points {
	c := make([]float32, len(p.Coords))
	copy(c, p.Coords)
	return Points{Coords: c, Dims: p.Dims}
}

// Gather returns a new Points holding the points at the given indices, in
// order.
func (p Points) Gather(indices []int32) Points {
	out := NewPoints(len(indices), p.Dims)
	for j, i := range indices {
		out.SetAt(j, p.At(int(i)))
	}
	return out
}

// Append appends the coordinates of one point and returns the updated set.
func (p Points) Append(coords []float32) Points {
	if len(coords) != p.Dims {
		panic(fmt.Sprintf("geom: appending %d-dim point to %d-dim set", len(coords), p.Dims))
	}
	p.Coords = append(p.Coords, coords...)
	return p
}

// Dist2 returns the squared Euclidean distance between points a and b.
func Dist2(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between points a and b.
func Dist(a, b []float32) float32 {
	return float32(math.Sqrt(float64(Dist2(a, b))))
}

// MinMax returns per-dimension minimum and maximum over points [lo,hi).
// Returns zero-length slices when the range is empty.
func (p Points) MinMax(lo, hi int) (mins, maxs []float32) {
	if lo >= hi {
		return nil, nil
	}
	d := p.Dims
	mins = make([]float32, d)
	maxs = make([]float32, d)
	copy(mins, p.Coords[lo*d:lo*d+d])
	copy(maxs, p.Coords[lo*d:lo*d+d])
	for i := lo + 1; i < hi; i++ {
		row := p.Coords[i*d : i*d+d : i*d+d]
		for j, v := range row {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	return mins, maxs
}
