package panda

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime"
	"sync"

	"panda/internal/cluster"
	"panda/internal/core"
	"panda/internal/geom"
	"panda/internal/simtime"
	"panda/internal/transport"
)

// Node is one rank's handle inside a distributed run: its communicator plus
// helpers to build and query distributed trees. Obtain one via RunCluster
// (in-process simulated cluster) or JoinTCP (real multi-process mesh).
type Node struct {
	comm *cluster.Comm
}

// Rank returns this node's rank in [0, Size).
func (n *Node) Rank() int { return n.comm.Rank() }

// Size returns the cluster size.
func (n *Node) Size() int { return n.comm.Size() }

// Threads returns the simulated thread count per rank.
func (n *Node) Threads() int { return n.comm.Threads() }

// Barrier blocks until every rank reaches it.
func (n *Node) Barrier() { n.comm.Barrier() }

// Result is the distributed query answer for one query id.
type Result = core.Result

// QueryTrace carries the distributed execution counters of one query wave
// (queries routed, forwarded to remote ranks, remote candidates that won).
type QueryTrace = core.QueryTrace

// DistTree is a distributed kd-tree handle held by one rank.
type DistTree struct {
	dt *core.DistTree

	localOnce    sync.Once
	local        *Tree
	serveThreads int
	// restoredTotal and closeSnap are set by OpenClusterSnapshot: the
	// cluster-wide point total recorded at save time, and the release hook
	// for the snapshot mapping (see DistTree.Close).
	restoredTotal int64
	closeSnap     func() error
}

// Build constructs the distributed kd-tree over this rank's point shard
// (SPMD: every rank must call it). ids are global point identifiers (nil
// derives unique defaults). opts configures the local trees; the global
// tree always splits on the dimension of maximum variance.
func (n *Node) Build(coords []float32, dims int, ids []int64, opts *BuildOptions) (*DistTree, error) {
	if dims <= 0 || len(coords)%dims != 0 {
		return nil, fmt.Errorf("panda: %d coords not a multiple of dims %d", len(coords), dims)
	}
	kopts, err := opts.toInternal()
	if err != nil {
		return nil, err
	}
	dt, err := core.BuildDistributed(n.comm, geom.FromCoords(coords, dims), ids, kopts)
	if err != nil {
		return nil, err
	}
	return &DistTree{dt: dt}, nil
}

// LocalLen returns how many points this rank owns after redistribution.
func (t *DistTree) LocalLen() int { return t.dt.Local.Len() }

// GlobalLevels returns the depth of the replicated global partition tree
// (log2 of the rank count for power-of-two clusters).
func (t *DistTree) GlobalLevels() int { return t.dt.Global.Levels() }

// Owner returns the rank whose domain contains q.
func (t *DistTree) Owner(q []float32) int { return t.dt.OwnerOf(q) }

// Rank returns the rank holding this shard.
func (t *DistTree) Rank() int { return t.dt.Rank() }

// Ranks returns the number of shards (cluster ranks).
func (t *DistTree) Ranks() int { return t.dt.Size() }

// Dims returns the point dimensionality.
func (t *DistTree) Dims() int { return t.dt.Dims() }

// Fingerprint returns a cluster-wide content hash for the distributed
// dataset: dims, rank count, and the replicated global partition tree
// (split planes and owner assignment). Every rank of one cluster computes
// the same value — unlike hashing the local shard, which differs per rank —
// so it is what cluster serving reports as the dataset fingerprint and what
// lets a client validate a reconnect landing on any rank of the same
// cluster. Distinct datasets virtually always produce distinct median
// splits, so the partition tree identifies the build without requiring a
// collective over the full point set.
func (t *DistTree) Fingerprint() uint64 {
	h := fnv.New64a()
	var w [24]byte
	binary.LittleEndian.PutUint32(w[0:4], uint32(t.dt.Dims()))
	binary.LittleEndian.PutUint32(w[4:8], uint32(t.dt.Size()))
	h.Write(w[:8])
	for _, n := range t.dt.Global.Nodes {
		binary.LittleEndian.PutUint32(w[0:4], uint32(n.Dim))
		binary.LittleEndian.PutUint32(w[4:8], math.Float32bits(n.Median))
		binary.LittleEndian.PutUint32(w[8:12], uint32(n.Left))
		binary.LittleEndian.PutUint32(w[12:16], uint32(n.Right))
		binary.LittleEndian.PutUint32(w[16:20], uint32(n.Rank))
		h.Write(w[:20])
	}
	return h.Sum64()
}

// RanksWithin appends to out every rank other than exclude whose domain
// intersects the ball of squared radius r2 around q — the paper's §III-B
// step 3, exposed per-query for serving. Pass exclude = -1 to include
// every intersecting rank. Safe for concurrent use.
func (t *DistTree) RanksWithin(q []float32, r2 float32, exclude int, out []int) []int {
	return t.dt.RemoteRanks(q, r2, exclude, out)
}

// SetServingThreads caps the worker threads LocalTree's batched queries use
// (default: GOMAXPROCS). Call before the first LocalTree/NewCluster use;
// once the cached wrapper exists the setting is fixed.
func (t *DistTree) SetServingThreads(n int) { t.serveThreads = n }

// LocalTree returns this rank's local shard wrapped as a single-node Tree
// (pooled searchers, batched queries) — the non-SPMD query surface cluster
// serving runs on. The wrapper is created once and cached; it shares the
// shard's storage, so it must not outlive the DistTree's data. Neighbor IDs
// are the global point ids passed to Build.
func (t *DistTree) LocalTree() *Tree {
	t.localOnce.Do(func() {
		threads := t.serveThreads
		if threads <= 0 {
			threads = runtime.GOMAXPROCS(0)
		}
		t.local = &Tree{t: t.dt.Local, threads: threads}
	})
	return t.local
}

// Query answers k-NN for this rank's query shard (SPMD: every rank calls it
// with its own queries; all ranks must pass the same k). queries is
// row-major; qids labels results (nil = index order). Results come back in
// input order.
func (t *DistTree) Query(queries []float32, qids []int64, k int) ([]Result, *QueryTrace, error) {
	dims := t.dt.Dims()
	if len(queries)%dims != 0 {
		return nil, nil, fmt.Errorf("panda: query buffer not a multiple of dims %d", dims)
	}
	// Non-finite coordinates are rejected inside QueryBatch, where the
	// check rides an existing collective so every rank errors in lockstep —
	// rejecting here, per rank, would strand the other ranks mid-collective.
	return t.dt.QueryBatch(geom.FromCoords(queries, dims), qids, core.QueryOptions{K: k})
}

// PhaseTiming is one phase of a distributed run under the simulated-time
// model: max-over-ranks elapsed, compute-only, communication-only, and the
// communication not hidden by pipelining.
type PhaseTiming struct {
	Name                     string
	Seconds                  float64
	ComputeSeconds           float64
	CommSeconds              float64
	NonOverlappedCommSeconds float64
}

// SimReport is the cost-model timing of a distributed run (see DESIGN.md:
// work and traffic are measured from the real execution; only the clock is
// modeled).
type SimReport struct {
	Phases []PhaseTiming
}

// Total sums the phases selected by filter (nil = all).
func (r *SimReport) Total(filter func(name string) bool) float64 {
	var s float64
	for _, p := range r.Phases {
		if filter == nil || filter(p.Name) {
			s += p.Seconds
		}
	}
	return s
}

// Find returns the named phase.
func (r *SimReport) Find(name string) (PhaseTiming, bool) {
	for _, p := range r.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseTiming{}, false
}

// Phase names appearing in SimReport, matching the paper's Figure 5
// breakdown categories.
var (
	// BuildPhases are the five construction phases of §III-A.
	BuildPhases = []string{
		core.PhaseGlobalTree,
		core.PhaseRedistribute,
		"local kd-tree (data parallel)",
		"local kd-tree (thread parallel)",
		"local kd-tree (SIMD packing)",
	}
	// QueryPhases are the four query phases of §III-B (non-overlapped
	// communication is derived from their comm accounting).
	QueryPhases = []string{
		core.PhaseFindOwner,
		core.PhaseLocalKNN,
		core.PhaseIdentifyRemote,
		core.PhaseRemoteKNN,
	}
)

// IsBuildPhase reports whether a SimReport phase belongs to tree
// construction.
func IsBuildPhase(name string) bool { return containsName(BuildPhases, name) }

// IsQueryPhase reports whether a SimReport phase belongs to querying.
func IsQueryPhase(name string) bool { return containsName(QueryPhases, name) }

func containsName(list []string, name string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

// RunCluster executes fn as an SPMD program over ranks in-process ranks
// (each a goroutine with its own shard and threadsPerRank simulated
// threads) and returns the simulated-time report. This is the simulated
// Edison: the algorithm, messages and collectives are real; only the clock
// is modeled.
func RunCluster(ranks, threadsPerRank int, fn func(n *Node) error) (*SimReport, error) {
	recs, err := cluster.Run(ranks, threadsPerRank, func(c *cluster.Comm) error {
		return fn(&Node{comm: c})
	})
	if err != nil {
		return nil, err
	}
	return newSimReport(simtime.Aggregate(simtime.DefaultRates(), recs)), nil
}

func newSimReport(rep simtime.Report) *SimReport {
	out := &SimReport{}
	for _, p := range rep.Phases {
		out.Phases = append(out.Phases, PhaseTiming{
			Name:                     p.Name,
			Seconds:                  p.Seconds,
			ComputeSeconds:           p.ComputeSeconds,
			CommSeconds:              p.CommSeconds,
			NonOverlappedCommSeconds: p.NonOverlappedCommSeconds,
		})
	}
	return out
}

// JoinTCP joins a real multi-process mesh as rank `rank`: addrs lists every
// rank's listen address in rank order, and this process listens on
// addrs[rank] (a port of 0 is not supported here — processes must agree on
// addresses up front). Returns the node and a close function. A failed join
// releases the bound listener before returning, so the port is immediately
// reusable.
func JoinTCP(rank int, addrs []string, threadsPerRank int) (*Node, func() error, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, nil, fmt.Errorf("panda: rank %d out of range for %d addrs", rank, len(addrs))
	}
	ln, err := transport.Listen(addrs[rank])
	if err != nil {
		return nil, nil, err
	}
	tr, err := transport.NewTCP(rank, ln, addrs)
	if err != nil {
		// NewTCP closes ln on its own failure paths; close again here so the
		// port cannot stay bound even if a future NewTCP change misses one.
		ln.Close()
		return nil, nil, err
	}
	if threadsPerRank < 1 {
		threadsPerRank = 1
	}
	comm := cluster.New(tr, simtime.NewRecorder(threadsPerRank))
	return &Node{comm: comm}, tr.Close, nil
}

// JoinTCPListener is JoinTCP for a pre-bound listener (use when ports are
// assigned dynamically and shared out of band, e.g. in tests). Like
// JoinTCP, a failed join closes ln — ownership transfers on call, matching
// Server.Serve semantics.
func JoinTCPListener(rank int, ln net.Listener, addrs []string, threadsPerRank int) (*Node, func() error, error) {
	tr, err := transport.NewTCP(rank, ln, addrs)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	if threadsPerRank < 1 {
		threadsPerRank = 1
	}
	comm := cluster.New(tr, simtime.NewRecorder(threadsPerRank))
	return &Node{comm: comm}, tr.Close, nil
}
