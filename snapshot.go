// Snapshot persistence: write a built tree to disk once, then warm-start
// any number of processes from it in milliseconds instead of rebuilding
// from raw points (see internal/snapshot for the PNDS file format).
package panda

import (
	"encoding/json"
	"fmt"
	"os"

	"panda/internal/core"
	"panda/internal/kdtree"
	"panda/internal/proto"
	"panda/internal/snapshot"
)

// WriteSnapshot persists the built tree to path as a PNDS snapshot file: a
// versioned, checksummed, little-endian flat layout of the packed points,
// ids, node array, split bounds, and build options. The file can be opened
// by OpenSnapshot (zero-copy mmap), ReadSnapshot (copying), `panda snapshot
// inspect|verify`, and `panda-serve -snapshot`.
func (t *Tree) WriteSnapshot(path string) error {
	return snapshot.WriteFile(path, &snapshot.Data{Raw: t.t.Raw()})
}

// OpenSnapshot opens a snapshot written by WriteSnapshot, mmap'ing the file
// and reconstructing the tree by slicing the mapping — zero-copy, so the
// warm start costs validation (section bounds, CRC, node-graph and
// finite-coordinate checks), not parsing or rebuilding. Queries answer
// bit-identically to the tree the snapshot was written from.
//
// The returned tree aliases the mapping: call Close when done with it, and
// not before. On platforms without mmap this falls back to the copying
// ReadSnapshot path transparently.
func OpenSnapshot(path string) (*Tree, error) {
	snap, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := treeFromSnapshot(snap)
	if err != nil {
		snap.Close()
		return nil, err
	}
	return t, nil
}

// ReadSnapshot loads a snapshot through the safe copying path: every array
// is decoded into fresh memory and the file is released before returning.
// Slower than OpenSnapshot and with no mmap requirement; the resulting tree
// is bit-identical to the OpenSnapshot one.
func ReadSnapshot(path string) (*Tree, error) {
	snap, err := snapshot.Read(path)
	if err != nil {
		return nil, err
	}
	return treeFromSnapshot(snap)
}

// treeFromSnapshot runs the tree-level validation and wraps the result.
func treeFromSnapshot(snap *snapshot.Snapshot) (*Tree, error) {
	if c := snap.Cluster; c != nil {
		// A rank file holds 1/P of the dataset; serving it as a standalone
		// tree would answer every query with silently missing neighbors.
		return nil, fmt.Errorf("panda: snapshot is rank %d of a %d-rank cluster (%d total points); open it with OpenClusterSnapshot or panda-serve -cluster -snapshot",
			c.Rank, c.Ranks, c.TotalPoints)
	}
	return wrapSnapshotTree(snap)
}

// wrapSnapshotTree reconstructs snap's kd-tree and wraps it as a Tree that
// runs at the stored build thread count and releases snap on Close.
func wrapSnapshotTree(snap *snapshot.Snapshot) (*Tree, error) {
	kt, err := kdtree.FromRaw(snap.Raw)
	if err != nil {
		return nil, err
	}
	threads := snap.Raw.Opts.Threads
	if threads <= 0 {
		threads = 1
	}
	return &Tree{t: kt, threads: threads, closeSnap: snap.Close}, nil
}

// Close releases the snapshot mapping backing a tree returned by
// OpenSnapshot. The tree (and every result slice aliasing its points) must
// not be used afterwards. Close is a no-op — and returns nil — for built
// trees and ReadSnapshot trees.
func (t *Tree) Close() error {
	if t.closeSnap == nil {
		return nil
	}
	c := t.closeSnap
	t.closeSnap = nil
	return c()
}

// SetThreads sets the worker-thread cap for batched queries (KNNBatch and
// the serving dispatch path). Snapshot-opened trees default to the thread
// count stored at build time; call this before sharing the tree across
// goroutines.
func (t *Tree) SetThreads(n int) {
	if n > 0 {
		t.threads = n
	}
}

// clusterManifest is the small JSON file describing a cluster snapshot
// directory; every rank's PNDS file additionally embeds the cluster
// section (rank, ranks, total points, global tree), so the manifest's job
// is discovery and cross-checking, not data. Replication and Replicas were
// added with R-way shard replication: Replicas[s] lists the ranks holding a
// copy of shard s, primary first. Both are optional — a manifest written
// before replication (or with replication 1) reads as the identity
// placement, every shard held only by its own rank.
type clusterManifest struct {
	Format      string  `json:"format"`
	Version     int     `json:"version"`
	Ranks       int     `json:"ranks"`
	Dims        int     `json:"dims"`
	TotalPoints int64   `json:"totalPoints"`
	Replication int     `json:"replication,omitempty"`
	Replicas    [][]int `json:"replicas,omitempty"`
}

const manifestFormat = "panda-cluster-snapshot"

// manifestVersion is the manifest's own format version, independent of the
// PNDS version of the shard files beside it.
const manifestVersion = 1

// DefaultReplication is the replication factor DistTree.WriteSnapshot
// records when not told otherwise (clamped to the rank count): every shard
// on its own rank plus one cyclic successor, the cheapest placement that
// survives any single rank failure.
const DefaultReplication = 2

// parseClusterManifest unmarshals and validates a manifest, resolving the
// replica placement: an explicit Replicas map is validated against the rank
// count; otherwise one is derived from the Replication factor (absent → 1,
// the pre-replication identity placement).
func parseClusterManifest(data []byte) (*clusterManifest, error) {
	var m clusterManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("panda: cluster manifest: %w", err)
	}
	if m.Format != manifestFormat || m.Version != manifestVersion {
		return nil, fmt.Errorf("panda: cluster manifest format %q version %d not supported", m.Format, m.Version)
	}
	if m.Ranks < 1 || m.Ranks >= proto.ManifestShard {
		return nil, fmt.Errorf("panda: cluster manifest claims %d ranks", m.Ranks)
	}
	if m.Dims < 1 {
		return nil, fmt.Errorf("panda: cluster manifest claims %d dims", m.Dims)
	}
	if m.TotalPoints < 0 {
		return nil, fmt.Errorf("panda: cluster manifest claims %d total points", m.TotalPoints)
	}
	if m.Replication < 0 || m.Replication > m.Ranks {
		return nil, fmt.Errorf("panda: replication factor %d out of range for %d ranks", m.Replication, m.Ranks)
	}
	if m.Replication == 0 {
		m.Replication = 1
	}
	if m.Replicas == nil {
		m.Replicas = core.BuildReplicaSets(m.Ranks, m.Replication)
	}
	if err := core.ValidateReplicaSets(m.Replicas, m.Ranks); err != nil {
		return nil, fmt.Errorf("panda: cluster manifest: %w", err)
	}
	return &m, nil
}

// WriteSnapshot persists this rank's shard of the distributed tree into
// dir: the rank's local tree plus a cluster section carrying the
// replicated global partition tree, so OpenClusterSnapshot can warm-start
// the rank without a mesh or any SPMD collective. Rank 0 also writes the
// directory manifest, recording the DefaultReplication placement (each
// shard on its own rank plus one successor). On a freshly built tree this
// is an SPMD call (every rank must call it — the cluster-wide point total
// rides an all-reduce); on a snapshot-restored tree it reuses the stored
// total and is purely local.
func (t *DistTree) WriteSnapshot(dir string) error {
	return t.WriteSnapshotReplicated(dir, DefaultReplication)
}

// WriteSnapshotReplicated is WriteSnapshot with an explicit replication
// factor (clamped to [1, ranks]): the manifest records each shard as held
// by its own rank plus replication-1 cyclic successors. The snapshot files
// themselves are identical for any factor — replication is a property of
// the placement map (and of which ranks keep a copy of which file), not of
// the file contents, so a directory can be re-manifested at a different
// factor without rewriting a byte of tree data.
func (t *DistTree) WriteSnapshotReplicated(dir string, replication int) error {
	total := t.restoredTotal
	if c := t.dt.Comm(); c != nil {
		total = c.AllReduceInt64([]int64{int64(t.LocalLen())}, "sum")[0]
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	rank, ranks, dims := t.Rank(), t.Ranks(), t.Dims()
	data := &snapshot.Data{
		Raw: t.dt.Local.Raw(),
		Cluster: &snapshot.ClusterMeta{
			Rank:        rank,
			Ranks:       ranks,
			TotalPoints: total,
			GlobalRoot:  t.dt.Global.Root(),
			GlobalNodes: t.dt.Global.Nodes,
		},
	}
	if err := snapshot.WriteFile(snapshot.ShardFile(dir, rank), data); err != nil {
		return err
	}
	if rank != 0 {
		return nil
	}
	if replication < 1 {
		replication = 1
	}
	if replication > ranks {
		replication = ranks
	}
	m, err := json.MarshalIndent(clusterManifest{
		Format: manifestFormat, Version: manifestVersion,
		Ranks: ranks, Dims: dims, TotalPoints: total,
		Replication: replication,
		Replicas:    core.BuildReplicaSets(ranks, replication),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(snapshot.ManifestFile(dir), append(m, '\n'), 0o666)
}

// OpenClusterSnapshot warm-starts one rank of a sharded cluster from a
// snapshot directory written by DistTree.WriteSnapshot: it opens the rank's
// PNDS file zero-copy, revalidates the embedded global partition tree, and
// assembles a serving DistTree — no mesh join, no redistribution, no SPMD
// build. The result supports the serving surface (Rank, Ranks, Dims, Owner,
// RanksWithin, LocalTree, server.NewCluster); the SPMD Query collective is
// unavailable and returns an error. Call Close to release the mapping.
func OpenClusterSnapshot(dir string, rank int) (*DistTree, error) {
	dt, _, err := openClusterRank(dir, rank)
	return dt, err
}

// openClusterRank reads and validates dir's manifest, then opens rank's own
// shard file as a serving DistTree checked against it.
func openClusterRank(dir string, rank int) (*DistTree, *clusterManifest, error) {
	mb, err := os.ReadFile(snapshot.ManifestFile(dir))
	if err != nil {
		return nil, nil, err
	}
	m, err := parseClusterManifest(mb)
	if err != nil {
		return nil, nil, err
	}
	if rank < 0 || rank >= m.Ranks {
		return nil, nil, fmt.Errorf("panda: rank %d out of range for %d-rank snapshot", rank, m.Ranks)
	}
	snap, err := snapshot.Open(snapshot.ShardFile(dir, rank))
	if err != nil {
		return nil, nil, err
	}
	dt, err := distTreeFromSnapshot(snap, rank, m)
	if err != nil {
		snap.Close()
		return nil, nil, err
	}
	return dt, m, nil
}

// ClusterSnapshot is a rank's replication-aware view of a cluster snapshot
// directory: its own shard as a DistTree plus zero-copy trees for every
// other shard the placement map assigns it. Held shards whose files are not
// present locally are listed in Missing — the serving layer pulls those
// from live holders over the section-streaming protocol.
type ClusterSnapshot struct {
	Tree        *DistTree     // this rank's own shard + the global partition tree
	Replicas    map[int]*Tree // shard → opened replica tree (own shard excluded)
	ReplicaSets [][]int       // shard → ordered holder ranks, primary first
	Replication int           // the manifest's replication factor
	Missing     []int         // held shards with no local file yet
	Dir         string        // the snapshot directory
}

// OpenClusterSnapshotReplicated warm-starts one rank of a replicated
// cluster: the rank's own shard (exactly OpenClusterSnapshot) plus a
// zero-copy open of every replica shard the manifest assigns this rank.
// Replica trees are byte-identical to their primaries' — both open the same
// snapshot bytes — which is what keeps failover answers bit-identical. A
// missing replica file is not an error; it is reported in Missing for the
// server to fetch.
func OpenClusterSnapshotReplicated(dir string, rank int) (*ClusterSnapshot, error) {
	dt, m, err := openClusterRank(dir, rank)
	if err != nil {
		return nil, err
	}
	cs := &ClusterSnapshot{
		Tree:        dt,
		Replicas:    map[int]*Tree{},
		ReplicaSets: m.Replicas,
		Replication: m.Replication,
		Dir:         dir,
	}
	for _, s := range core.HeldShards(m.Replicas, rank, nil) {
		if s == rank {
			continue // the primary copy is cs.Tree
		}
		rt, err := OpenReplicaShard(dir, s, m.Ranks, m.Dims, m.TotalPoints)
		if os.IsNotExist(err) {
			cs.Missing = append(cs.Missing, s)
			continue
		}
		if err != nil {
			cs.Close()
			return nil, fmt.Errorf("panda: replica shard %d: %w", s, err)
		}
		cs.Replicas[s] = rt
	}
	return cs, nil
}

// OpenReplicaShard opens shard s's snapshot file from dir as a standalone
// query tree, cross-checking the embedded cluster section against the
// expected topology. The returned tree answers local-shard calls (the
// failover router's direct path) bit-identically to shard s's own rank.
func OpenReplicaShard(dir string, s, ranks, dims int, totalPoints int64) (*Tree, error) {
	snap, err := snapshot.Open(snapshot.ShardFile(dir, s))
	if err != nil {
		return nil, err
	}
	t, err := replicaTreeFromSnapshot(snap, s, ranks, dims, totalPoints)
	if err != nil {
		snap.Close()
		return nil, err
	}
	return t, nil
}

// replicaTreeFromSnapshot validates a replica shard file and wraps its tree.
func replicaTreeFromSnapshot(snap *snapshot.Snapshot, s, ranks, dims int, totalPoints int64) (*Tree, error) {
	meta := snap.Cluster
	if meta == nil {
		return nil, fmt.Errorf("panda: shard file carries no cluster section")
	}
	if meta.Rank != s || meta.Ranks != ranks {
		return nil, fmt.Errorf("panda: file is shard %d of %d, want shard %d of %d", meta.Rank, meta.Ranks, s, ranks)
	}
	if snap.Raw.Dims != dims {
		return nil, fmt.Errorf("panda: shard file has %d dims, cluster has %d", snap.Raw.Dims, dims)
	}
	if meta.TotalPoints != totalPoints {
		return nil, fmt.Errorf("panda: shard file records %d total points, cluster has %d", meta.TotalPoints, totalPoints)
	}
	return wrapSnapshotTree(snap)
}

// Close releases the rank's own tree and every opened replica.
func (cs *ClusterSnapshot) Close() error {
	var first error
	if cs.Tree != nil {
		first = cs.Tree.Close()
	}
	for s, rt := range cs.Replicas {
		if err := rt.Close(); err != nil && first == nil {
			first = err
		}
		delete(cs.Replicas, s)
	}
	return first
}

func distTreeFromSnapshot(snap *snapshot.Snapshot, rank int, m *clusterManifest) (*DistTree, error) {
	meta := snap.Cluster
	if meta == nil {
		return nil, fmt.Errorf("panda: snapshot carries no cluster section (written by Tree.WriteSnapshot, not DistTree.WriteSnapshot?)")
	}
	if meta.Rank != rank || meta.Ranks != m.Ranks {
		return nil, fmt.Errorf("panda: snapshot is rank %d of %d, manifest wants rank %d of %d",
			meta.Rank, meta.Ranks, rank, m.Ranks)
	}
	if snap.Raw.Dims != m.Dims {
		return nil, fmt.Errorf("panda: snapshot has %d dims, manifest says %d", snap.Raw.Dims, m.Dims)
	}
	if meta.TotalPoints != m.TotalPoints {
		return nil, fmt.Errorf("panda: snapshot total %d points, manifest says %d", meta.TotalPoints, m.TotalPoints)
	}
	global, err := core.NewGlobalTree(meta.GlobalNodes, meta.GlobalRoot, snap.Raw.Dims)
	if err != nil {
		return nil, err
	}
	if global.Ranks() != meta.Ranks {
		return nil, fmt.Errorf("panda: global tree partitions %d ranks, snapshot says %d", global.Ranks(), meta.Ranks)
	}
	local, err := kdtree.FromRaw(snap.Raw)
	if err != nil {
		return nil, err
	}
	cdt, err := core.RestoreDistTree(global, local, rank)
	if err != nil {
		return nil, err
	}
	return &DistTree{dt: cdt, restoredTotal: meta.TotalPoints, closeSnap: snap.Close}, nil
}

// TotalPoints returns the cluster-wide point total recorded in the
// snapshot this tree was restored from (0 for a freshly built tree — the
// builder knows its dataset size already).
func (t *DistTree) TotalPoints() int64 { return t.restoredTotal }

// Close releases the snapshot mapping backing a tree returned by
// OpenClusterSnapshot (no-op for built trees). The tree must not be used
// afterwards.
func (t *DistTree) Close() error {
	if t.closeSnap == nil {
		return nil
	}
	c := t.closeSnap
	t.closeSnap = nil
	return c()
}
