// Package kdtree implements PANDA's local (single-node) kd-tree: the data
// structure each cluster rank builds over the points it owns after global
// redistribution (§III-A steps ii–iv of the paper), and the query kernel of
// Algorithm 1.
//
// Construction follows the paper's three local stages:
//
//  1. data-parallel: at the top of the tree there are too few branches for
//     thread-level parallelism, so levels are built breadth-first with all
//     threads cooperating on each node's split (split-dimension selection by
//     sample variance, split-point selection by sampled non-uniform
//     histogram);
//  2. thread-parallel: once there are ≥ ~10× threads branches, each thread
//     builds complete subtrees depth-first from a distinct point subset;
//  3. SIMD packing: the dataset is shuffled so each leaf bucket's points are
//     contiguous in memory and leaf-major (one row per dimension), so the
//     leaf distance scan loads 8 points of a dimension at a time.
//
// Shuffling during construction moves only the 32-bit index array, never the
// points — the paper's shared-memory optimization — until the final packing
// pass. That array then stays on as the tree's id column (IDTable's narrow
// form), so ids cost 4 bytes per point rather than 8.
//
// All three stages execute with real wall-clock parallelism on a bounded
// worker pool (min(Options.Threads, GOMAXPROCS) workers): stage 1 runs each
// large split's classify/histogram/partition passes cooperatively across the
// pool, stage 2 fans whole subtrees out to it, and the packing and
// bounding-box passes chunk over it. The build is deterministic by
// construction — chunk boundaries are pure functions of the problem size and
// cross-chunk reductions merge in chunk order — so the produced tree is
// byte-identical for every thread count (see build.go and the differential
// tests in parallel_test.go).
package kdtree

import (
	"fmt"

	"panda/internal/geom"
	"panda/internal/sample"
	"panda/internal/simtime"
)

// Phase names used when an Options.Recorder is attached. The distributed
// layer aggregates these into the Figure 5(b) construction breakdown.
const (
	PhaseDataParallel   = "local kd-tree (data parallel)"
	PhaseThreadParallel = "local kd-tree (thread parallel)"
	PhasePack           = "local kd-tree (SIMD packing)"
)

// DefaultBucketSize is the paper's empirically best leaf size (§III-A1:
// "a bucket size of 32 gave the best performance").
const DefaultBucketSize = 32

// medianSamples is the paper's local sample count for approximate median
// selection (1024 samples for the local kd-tree).
const medianSamples = 1024

// threadSwitchFactor sets the switch to thread-parallel construction: once
// active branches reach Threads×threadSwitchFactor (paper: "typically,
// number of threads ×10").
const threadSwitchFactor = 10

// DefaultDimSampleCap bounds the number of points examined for
// split-dimension variance ("we take a subset of points to compute
// variances", after FLANN).
const DefaultDimSampleCap = 128

// SplitValuePolicy selects how the split *value* along the chosen dimension
// is computed. PANDA uses the sampled-histogram approximate median; the
// alternatives reproduce the libraries the paper compares against in
// Figure 7 (§V-B2) while sharing PANDA's query kernel, so comparisons
// isolate tree-quality policy.
type SplitValuePolicy int

const (
	// SplitSampledMedian is PANDA's policy: approximate median from a
	// non-uniform histogram over sampled values (§III-A1).
	SplitSampledMedian SplitValuePolicy = iota
	// SplitMeanSample reproduces FLANN: "takes an average of the first
	// 100 points over that dimension to compute median".
	SplitMeanSample
	// SplitMidRange reproduces ANN: "takes the average of the lower and
	// upper values of that dimension" — cheap, but degenerates on skewed
	// data (the paper saw depth 109 vs 32 on the Daya Bay dataset).
	SplitMidRange
)

func (p SplitValuePolicy) String() string {
	switch p {
	case SplitSampledMedian:
		return "sampled-median"
	case SplitMeanSample:
		return "mean-sample"
	case SplitMidRange:
		return "mid-range"
	default:
		return "unknown"
	}
}

// Options configures construction.
type Options struct {
	// BucketSize is the maximum leaf size; 0 means DefaultBucketSize.
	BucketSize int
	// SplitPolicy selects the split-dimension rule (default MaxVariance,
	// the paper's choice; MaxRange reproduces ANN for the ablation).
	SplitPolicy sample.SplitPolicy
	// SplitValue selects the split-value rule (default SplitSampledMedian,
	// PANDA's policy; the others reproduce FLANN and ANN for Figure 7).
	SplitValue SplitValuePolicy
	// DimSampleCap bounds variance computation; 0 means
	// DefaultDimSampleCap; negative means use all points.
	DimSampleCap int
	// Threads is the simulated thread count (≥1); it controls the
	// data-parallel/thread-parallel switchover and which thread meter
	// work is charged to. 0 means 1. It also caps construction's real
	// worker pool: Build fans its passes out to min(Threads, GOMAXPROCS)
	// workers, and the produced tree is byte-identical (Tree.Raw) at
	// every setting — only wall-clock time changes. Simulated charges
	// never depend on the real worker count.
	Threads int
	// Recorder, when non-nil, receives per-phase per-thread work meters.
	Recorder *simtime.Recorder
}

func (o Options) withDefaults() Options {
	if o.BucketSize <= 0 {
		o.BucketSize = DefaultBucketSize
	}
	if o.DimSampleCap == 0 {
		o.DimSampleCap = DefaultDimSampleCap
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	return o
}

// node is one kd-tree node. Leaves have dim == -1 and [start,end) indexing
// the packed point array; internal nodes store the split plane and children.
type node struct {
	dim    int32 // split dimension, or -1 for leaf
	median float32
	left   int32
	right  int32
	start  int32
	end    int32
}

const leafDim = int32(-1)

// Tree is an immutable local kd-tree over a packed point set.
type Tree struct {
	// coords holds the points packed leaf-major (the paper's SIMD
	// packing): leaf [lo,hi) of m = hi-lo points occupies
	// coords[lo*dims:hi*dims] as dims rows of m floats, row j holding
	// coordinate j of the leaf's points in point order. Every reader goes
	// through leafRows.
	coords []float32
	dims   int
	// ids maps packed position -> caller point id (global id in the
	// distributed setting; original index otherwise).
	ids IDTable
	// Box is the bounding box of the points (tight).
	Box geom.Box

	nodes  []node
	root   int32
	opts   Options
	height int
	// maxBucket, leaves and bucketSum cache the largest leaf size, the
	// leaf count and the total bucketed points, computed in one Build
	// pass, so Stats is O(1) instead of re-walking every node per call.
	maxBucket int
	leaves    int
	bucketSum int64
	// splitBounds holds, for each internal node ni at [ni*4:(ni+1)*4],
	// the tight point extents along its split dimension: the node's own
	// interval [lo, hi], the left child's maximum (lowMax) and the right
	// child's minimum (highMin). Computed once at Build. Queries prune
	// with the distance to the child's actual interval — a strictly
	// tighter lower bound than the split-plane offset (it sees the empty
	// gap between the children, the dominant slack in clustered data) at
	// O(1) per node. Results are identical: a subtree skipped by a valid
	// lower bound holds only points at distance ≥ the bound, which the
	// strict d < r' filter rejects regardless.
	splitBounds []float32
}

// Stats summarizes a built tree.
type Stats struct {
	Points     int
	Nodes      int
	Leaves     int
	Height     int
	MaxBucket  int
	MeanBucket float64
}

// Stats returns structural statistics. All fields are cached at Build (and
// revalidated by FromRaw when a tree is restored from a snapshot), so a call
// is O(1) rather than a walk over every node.
func (t *Tree) Stats() Stats {
	s := Stats{
		Points: t.Len(), Nodes: len(t.nodes), Height: t.height,
		Leaves: t.leaves, MaxBucket: t.maxBucket,
	}
	if t.leaves > 0 {
		s.MeanBucket = float64(t.bucketSum) / float64(t.leaves)
	}
	return s
}

// Height returns the tree height (root = height 1; empty tree = 0).
func (t *Tree) Height() int { return t.height }

// MaxBucket returns the largest leaf size (cached at Build).
func (t *Tree) MaxBucket() int { return t.maxBucket }

// IDs returns the tree's id column (aliasing tree storage; callers must not
// modify it).
func (t *Tree) IDs() IDTable { return t.ids }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.coords) / t.dims }

// Dims returns the dimensionality of the indexed points.
func (t *Tree) Dims() int { return t.dims }

// leafRows returns leaf n's points leaf-major: dims rows of m =
// n.end-n.start floats, coordinate j of the leaf's i-th point at
// rows[j*m+i].
func (t *Tree) leafRows(n *node) (rows []float32, m int) {
	lo, hi := int(n.start)*t.dims, int(n.end)*t.dims
	return t.coords[lo:hi:hi], int(n.end - n.start)
}

// validate walks the tree checking structural invariants; used by tests.
func (t *Tree) validate() error {
	if t.Len() == 0 {
		if len(t.nodes) != 0 {
			return fmt.Errorf("empty tree has %d nodes", len(t.nodes))
		}
		return nil
	}
	covered := make([]bool, t.Len())
	var walk func(ni int32, depth int) error
	walk = func(ni int32, depth int) error {
		if ni < 0 || int(ni) >= len(t.nodes) {
			return fmt.Errorf("node index %d out of range", ni)
		}
		n := t.nodes[ni]
		if n.dim == leafDim {
			if n.start > n.end || int(n.end) > t.Len() {
				return fmt.Errorf("leaf range [%d,%d) invalid", n.start, n.end)
			}
			for i := n.start; i < n.end; i++ {
				if covered[i] {
					return fmt.Errorf("point %d in two leaves", i)
				}
				covered[i] = true
			}
			return nil
		}
		if int(n.dim) >= t.dims {
			return fmt.Errorf("split dim %d out of range", n.dim)
		}
		// Split invariant: all left points ≤ median ≤ all right points
		// along the split dimension (equals may sit on either side).
		if err := walk(n.left, depth+1); err != nil {
			return err
		}
		if err := walk(n.right, depth+1); err != nil {
			return err
		}
		if err := t.checkSide(n.left, int(n.dim), n.median, true); err != nil {
			return err
		}
		if err := t.checkSide(n.right, int(n.dim), n.median, false); err != nil {
			return err
		}
		return nil
	}
	if err := walk(t.root, 1); err != nil {
		return err
	}
	for i, c := range covered {
		if !c {
			return fmt.Errorf("point %d not covered by any leaf", i)
		}
	}
	return nil
}

func (t *Tree) checkSide(ni int32, dim int, median float32, isLeft bool) error {
	n := t.nodes[ni]
	if n.dim != leafDim {
		if err := t.checkSide(n.left, dim, median, isLeft); err != nil {
			return err
		}
		return t.checkSide(n.right, dim, median, isLeft)
	}
	rows, m := t.leafRows(&n)
	for k, v := range rows[dim*m : (dim+1)*m] {
		i := int(n.start) + k
		if isLeft && v > median {
			return fmt.Errorf("left point %d has %v > median %v (dim %d)", i, v, median, dim)
		}
		if !isLeft && v < median {
			return fmt.Errorf("right point %d has %v < median %v (dim %d)", i, v, median, dim)
		}
	}
	return nil
}

// Neighbor is one query result.
type Neighbor struct {
	ID    int64   // caller point id
	Dist2 float32 // squared Euclidean distance
}

// QueryStats counts work done by one or more queries (the paper reports
// node-traversal counts when comparing against FLANN/ANN).
type QueryStats struct {
	NodesVisited  int64
	PointsScanned int64
	HeapPushes    int64
}

func (s *QueryStats) add(o QueryStats) {
	s.NodesVisited += o.NodesVisited
	s.PointsScanned += o.PointsScanned
	s.HeapPushes += o.HeapPushes
}

// Add accumulates o into s.
func (s *QueryStats) Add(o QueryStats) { s.add(o) }
