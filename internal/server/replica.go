// Replica management: the section-streaming server that ships snapshot
// files to under-replicated peers, and the pull-based repair loop that
// keeps every shard at its replication factor while ranks die and (re)join
// (a pulled shard lands in its slot of the default tenant, registry.go).
package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"panda"
	"panda/internal/core"
	"panda/internal/proto"
	"panda/internal/snapshot"
)

// replicaFetchChunk is the chunk size the re-replication puller asks for:
// a quarter of the protocol cap, so shard streaming interleaves politely
// with query traffic on the shared peer connection.
const replicaFetchChunk = 256 << 10

// sectionServer answers KindFetchSection requests from the snapshot
// directory. Sources stay open across chunks so a concurrently re-written
// file (atomic temp+rename) cannot tear a stream: every chunk of one
// stream comes from the same inode.
type sectionServer struct {
	dir string

	mu   sync.Mutex
	open map[int]*snapshot.ChunkSource
}

func newSectionServer(dir string) *sectionServer {
	return &sectionServer{dir: dir, open: map[int]*snapshot.ChunkSource{}}
}

// read serves one chunk of shard's file (proto.ManifestShard streams the
// manifest itself — a joining rank's first fetch, before it knows the
// topology).
func (ss *sectionServer) read(shard int, off uint64, maxLen int, buf []byte) (data []byte, fileSize uint64, crc uint32, err error) {
	ss.mu.Lock()
	cs := ss.open[shard]
	if cs == nil {
		path := snapshot.ShardFile(ss.dir, shard)
		if shard == proto.ManifestShard {
			path = snapshot.ManifestFile(ss.dir)
		}
		cs, err = snapshot.OpenChunkSource(path)
		if err != nil {
			ss.mu.Unlock()
			return nil, 0, 0, fmt.Errorf("server: shard %d not served here: %w", shard, err)
		}
		ss.open[shard] = cs
	}
	ss.mu.Unlock()
	data, crc, err = cs.ReadChunk(off, maxLen, buf)
	if err != nil {
		return nil, 0, 0, err
	}
	return data, uint64(cs.Size()), crc, nil
}

// close releases every open source.
func (ss *sectionServer) close() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for s, cs := range ss.open {
		cs.Close()
		delete(ss.open, s)
	}
}

// desiredShards computes which shards this rank should currently hold:
// shard s belongs to the first R live ranks of its preference order
// (s, s+1, …, wrapping) — the same round-robin rule the manifest placement
// was built with, re-evaluated against liveness. When a holder dies, the
// next live rank in the chain becomes responsible and pulls a copy; when
// the holder returns, the chain contracts again (the extra copy is kept,
// harmlessly — it is the same bytes).
func (rt *router) desiredShards(out []int) []int {
	p := rt.shard.Ranks()
	for s := 0; s < p; s++ {
		counted := 0
		for i := 0; i < p && counted < rt.repl; i++ {
			r := (s + i) % p
			if !rt.health.live(r) {
				continue
			}
			counted++
			if r == rt.rank {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// maybeRereplicate starts one background repair pass if none is running.
func (rt *router) maybeRereplicate() {
	if rt.sections == nil {
		return
	}
	if !rt.replicating.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer rt.replicating.Store(false)
		rt.rereplicate()
	}()
}

// rereplicate pulls every desired-but-missing shard from a live holder.
// Failures are left for the next heartbeat sweep to retry.
func (rt *router) rereplicate() {
	for _, s := range rt.desiredShards(nil) {
		if rt.shardTree(s) != nil {
			continue
		}
		rt.fetchShard(s)
	}
}

// fetchShard streams shard s's snapshot file from any live static holder,
// commits it into the snapshot directory (atomic, doubly CRC-checked), and
// stores the opened tree in shard s's slot so this rank starts answering
// for s.
func (rt *router) fetchShard(s int) error {
	var lastErr error
	for _, h := range rt.sets[s] {
		if h == rt.rank || !rt.health.live(h) || rt.peers[h] == nil {
			continue
		}
		if err := rt.fetchShardFrom(s, h); err != nil {
			lastErr = err
			if isTransportErr(err) {
				rt.health.fail(h)
				rt.s.statPeerFailures.Add(1)
			}
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("server: no live holder for shard %d", s)
	}
	return lastErr
}

func (rt *router) fetchShardFrom(s, h int) error {
	asm := snapshot.NewAssembler()
	if err := streamInto(rt.peers[h], s, asm); err != nil {
		return err
	}
	if _, err := asm.Commit(snapshot.ShardFile(rt.snapDir, s)); err != nil {
		return err
	}
	tree, err := panda.OpenReplicaShard(rt.snapDir, s, rt.shard.Ranks(), rt.shard.Dims(), rt.totalPoints)
	if err != nil {
		return fmt.Errorf("server: opening fetched shard %d: %w", s, err)
	}
	rt.s.def.shards[s].Store(tree)
	return nil
}

// Drainable reports whether this rank can leave the cluster with zero
// downtime: every shard it serves a copy of must have at least one other
// holder answering pings right now, so queries fail over the moment this
// rank disconnects and re-replication restores the factor afterwards. On a
// single-node (non-cluster) server it always succeeds.
func (s *Server) Drainable() error {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.drainable()
}

func (rt *router) drainable() error {
	for sh, holders := range rt.sets {
		if rt.shardTree(sh) == nil {
			continue
		}
		covered := false
		for _, h := range holders {
			if h == rt.rank || rt.peers[h] == nil {
				continue
			}
			if err := rt.peers[h].ping(rt.pingTimeout); err == nil {
				rt.health.ok(h)
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("server: shard %d has no other live holder; draining rank %d now would drop its only serving copy", sh, rt.rank)
		}
	}
	return nil
}

// joinManifest is the minimal manifest view the join fetcher needs to know
// which shard files to pull; the root package re-validates the full file at
// warm start.
type joinManifest struct {
	Ranks       int     `json:"ranks"`
	Replication int     `json:"replication"`
	Replicas    [][]int `json:"replicas"`
}

// FetchClusterSnapshot populates dir with everything rank needs to
// warm-start as one rank of a running replicated cluster: the manifest and
// every shard file the placement assigns this rank, all streamed from live
// peers over the section protocol (chunk CRCs plus the whole-file PNDS
// trailer check before anything is trusted). This is how `panda-serve
// -cluster -join` brings a fresh or replacement rank up with zero cluster
// downtime: the survivors keep serving while the newcomer pulls.
func FetchClusterSnapshot(dir string, rank int, addrs []string, timeout time.Duration) error {
	if rank < 0 || rank >= len(addrs) {
		return fmt.Errorf("server: join rank %d out of range for %d addresses", rank, len(addrs))
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	peers := make([]*peer, len(addrs))
	for i, addr := range addrs {
		if i == rank {
			continue
		}
		// dims -1: the joiner learns the dimensionality from the welcome.
		peers[i] = &peer{rank: i, addr: addr, dims: -1, dialTimeout: timeout, callTimeout: timeout}
	}
	defer func() {
		for _, p := range peers {
			if p != nil {
				p.close()
			}
		}
	}()

	// The manifest first, from any live peer: it names the placement.
	var mb []byte
	var lastErr error
	for _, p := range peers {
		if p == nil {
			continue
		}
		raw, err := fetchFileFrom(p, proto.ManifestShard)
		if err != nil {
			lastErr = err
			continue
		}
		mb = raw
		break
	}
	if mb == nil {
		return fmt.Errorf("server: fetching cluster manifest: %w", lastErr)
	}
	var m joinManifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return fmt.Errorf("server: streamed manifest: %w", err)
	}
	if m.Ranks != len(addrs) {
		return fmt.Errorf("server: manifest describes %d ranks, join was given %d addresses", m.Ranks, len(addrs))
	}
	sets := m.Replicas
	if sets == nil {
		r := m.Replication
		if r < 1 {
			r = 1
		}
		sets = core.BuildReplicaSets(m.Ranks, r)
	}
	if err := core.ValidateReplicaSets(sets, m.Ranks); err != nil {
		return fmt.Errorf("server: streamed manifest: %w", err)
	}
	if err := os.WriteFile(snapshot.ManifestFile(dir), mb, 0o666); err != nil {
		return err
	}

	// Then every shard file this rank holds, each from one of its holders.
	for _, s := range core.HeldShards(sets, rank, nil) {
		fetched := false
		for _, h := range sets[s] {
			if h == rank || peers[h] == nil {
				continue
			}
			asm := snapshot.NewAssembler()
			if err := streamInto(peers[h], s, asm); err != nil {
				lastErr = err
				continue
			}
			if _, err := asm.Commit(snapshot.ShardFile(dir, s)); err != nil {
				lastErr = err
				continue
			}
			fetched = true
			break
		}
		if !fetched {
			return fmt.Errorf("server: fetching shard %d: %w", s, lastErr)
		}
	}
	return nil
}

// streamInto pulls shard's whole file from p into asm.
func streamInto(p *peer, shard int, asm *snapshot.Assembler) error {
	for !asm.Complete() {
		data, fileSize, crc, err := p.fetchSection(shard, asm.Next(), replicaFetchChunk)
		if err != nil {
			return err
		}
		if err := asm.Add(asm.Next(), fileSize, crc, data); err != nil {
			return err
		}
	}
	return nil
}

// fetchFileFrom streams one whole (non-PNDS) file and returns its bytes.
func fetchFileFrom(p *peer, shard int) ([]byte, error) {
	asm := snapshot.NewAssembler()
	if err := streamInto(p, shard, asm); err != nil {
		return nil, err
	}
	return asm.Raw()
}
