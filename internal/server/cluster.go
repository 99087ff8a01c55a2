// Cluster serving: route external client traffic across a multi-rank
// DistTree.
//
// One Server per rank. Each rank holds its DistTree shard (built over the
// SPMD mesh, e.g. panda.JoinTCP) and accepts ordinary protocol clients on
// its serving address; any rank answers any query. Per query the router
// runs the paper's §III-B pipeline, but over pipelined serving connections
// instead of SPMD collectives:
//
//  1. find owner — a pure read of the replicated global partition tree
//     (identical on every rank, so ownership is computed once and the
//     forward chain has length ≤ 1);
//  2. local KNN at the owner — owned queries are enqueued on the regular
//     micro-batching intake, so they coalesce with everyone else's traffic
//     into KNNBatchFlatInto arena calls; queries owned elsewhere are
//     forwarded to their owner shard as KindShardKNN batches, where they
//     ride that rank's dispatcher the same way;
//  3. identify remote ranks — when the kth-candidate ball r'² crosses shard
//     boundaries, RanksWithin lists the ranks whose domains intersect it;
//  4. remote KNN — those shards answer KindShardRemoteKNN (bounded
//     candidate search, strictly within r'²);
//  5. merge — local and remote candidates merge through the same
//     knnheap.MergeTopK the SPMD engine uses, so answers are bit-identical
//     to a single tree built over the union of the shards, with one caveat
//     shared with the SPMD engine: neighbor DISTANCES are always exactly
//     the single tree's, but when several candidates tie exactly at the
//     kth-neighbor distance, which tied id is retained is scan-order
//     dependent in the kernel (the accept rule is strictly-closer), so the
//     cluster and a single tree may keep different — equally correct —
//     tied ids. Real-valued data has no such ties; integer grids do.
//
// Radius queries skip ownership (the ball is known up front): the router
// fans KindShardRadius out to every shard whose domain intersects the ball
// and merges by (distance, id) — the single-tree result order.
//
// Every inter-rank call names its shard, so one wire kind per step serves
// the shard's primary and its replica holders alike, and a receiver never
// re-routes: it answers from its copy of the named shard.
//
// # Replication and failover
//
// With an R-way replica placement (ClusterConfig.ReplicaSets, from the
// snapshot manifest) every shard step above gains a fallback chain: a
// shard's work runs at the shard's first LIVE holder, primary first, and
// one walk (walkHolders) does this for every step. A replica holder answers
// from its copy of the shard's snapshot bytes — the same bytes the primary
// serves — so failover answers stay bit-identical while any one copy of
// each shard survives — the same shard-addressed kinds reach a replica
// holder as reach the primary. Every tree a rank holds is a shard slot of
// its default tenant (registry.go), so a replica's KNN and radius legs ride
// the micro-batching dispatcher exactly like the rank's own shard's, and
// count in the tenant's queries, /metrics and stage histograms. Liveness
// comes from transport failures and a background heartbeat (health.go); a
// dead rank's shards are re-pulled by the next ranks in the chain over the
// section-streaming protocol (replica.go).
//
// The dispatcher never blocks on the network (router goroutines do), and a
// forwarded query becomes owner-local on arrival, so the only cross-rank
// waits are router → dispatcher — the dependency graph is acyclic and the
// cluster cannot self-deadlock.
package server

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"panda"
	"panda/internal/core"
	"panda/internal/knnheap"
	"panda/internal/proto"
)

// ClusterConfig configures one rank's cluster server on top of the base
// serving Config.
type ClusterConfig struct {
	Config

	// ServeAddrs lists every rank's serving address in rank order; entry
	// DistTree.Rank() is this server's own address (informational here — the
	// caller binds the listener), the rest are dialed as peers.
	ServeAddrs []string

	// TotalPoints, when > 0, is reported as the point count in the client
	// welcome instead of the local shard size (set it to the cluster-wide
	// total so clients see the logical tree they are querying). Replicated
	// serving requires it: replica shard files are cross-checked against it.
	TotalPoints int64

	// PeerDialTimeout bounds connecting + handshaking to a peer rank
	// (default 10s; dialing is lazy and retried on next use, with jittered
	// exponential backoff after failures).
	PeerDialTimeout time.Duration

	// PeerCallTimeout bounds one inter-rank call (default 30s) so a wedged
	// peer cannot pin router goroutines — and with them Shutdown — forever.
	PeerCallTimeout time.Duration

	// ReplicaSets is the shard → ordered holder-ranks placement (primary
	// first), normally the manifest's (panda.ClusterSnapshot.ReplicaSets).
	// Nil means the identity placement: every shard only on its own rank,
	// no failover.
	ReplicaSets [][]int

	// Replicas maps shard → opened replica tree for every shard this rank
	// holds beyond its own (panda.ClusterSnapshot.Replicas). Queries for
	// those shards are answered locally when their primaries are dead.
	Replicas map[int]*panda.Tree

	// SnapshotDir, when set, enables section streaming: this rank serves
	// chunks of its snapshot files to re-replicating and joining peers, and
	// pulls missing or under-replicated shards into the directory itself.
	SnapshotDir string

	// HeartbeatInterval is how often the health loop pings each peer
	// (default 1s). Heartbeats both detect silent rank death and recover
	// ranks previously marked dead.
	HeartbeatInterval time.Duration

	// PingTimeout bounds one heartbeat ping (default 2s).
	PingTimeout time.Duration

	// FailThreshold is how many consecutive transport failures mark a rank
	// dead (default 3). One success marks it live again.
	FailThreshold int
}

// NewCluster returns an unstarted cluster server for this rank's shard of
// the distributed tree: its replicated global tree routes queries, its
// local shard (LocalTree) answers them. Start it with Serve on a listener
// bound to ServeAddrs[shard.Rank()], stop with Shutdown. Every rank of the
// cluster must run one.
func NewCluster(shard *panda.DistTree, cfg ClusterConfig) (*Server, error) {
	if got, want := len(cfg.ServeAddrs), shard.Ranks(); got != want {
		return nil, fmt.Errorf("server: %d serve addresses for %d ranks", got, want)
	}
	if cfg.PeerDialTimeout <= 0 {
		cfg.PeerDialTimeout = 10 * time.Second
	}
	if cfg.PeerCallTimeout <= 0 {
		cfg.PeerCallTimeout = 30 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.PingTimeout <= 0 {
		cfg.PingTimeout = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	sets := cfg.ReplicaSets
	if sets == nil {
		sets = core.BuildReplicaSets(shard.Ranks(), 1)
	}
	if err := core.ValidateReplicaSets(sets, shard.Ranks()); err != nil {
		return nil, fmt.Errorf("server: replica sets: %w", err)
	}
	repl := 1
	for _, holders := range sets {
		if len(holders) > repl {
			repl = len(holders)
		}
	}
	rank := shard.Rank()
	// The default dataset id must be identical on every rank (a client
	// validates reconnects against it, and a redial may land anywhere), so
	// its fingerprint is the cluster-wide one over the replicated global
	// partition tree, not the local shard's content hash.
	reg := NewRegistry()
	def, err := reg.add(proto.DefaultDataset, shard.LocalTree())
	if err != nil {
		return nil, err
	}
	def.id.Fingerprint = shard.Fingerprint()
	s, err := NewMulti(reg, cfg.Config)
	if err != nil {
		return nil, err
	}
	// The default tenant holds one slot per shard: this rank's own tree and
	// every replica it opened; re-replication fills further slots later.
	s.def.shards = make([]atomic.Pointer[panda.Tree], shard.Ranks())
	for sh, tree := range cfg.Replicas {
		if sh < 0 || sh >= shard.Ranks() {
			return nil, fmt.Errorf("server: replica shard %d out of range for %d ranks", sh, shard.Ranks())
		}
		s.def.shards[sh].Store(tree)
	}
	s.def.shards[rank].Store(shard.LocalTree())
	if cfg.TotalPoints > 0 {
		// Clients see the logical cluster-wide tree, not this rank's shard.
		s.def.id.Points = cfg.TotalPoints
	}
	s.rank = int32(rank) // label this rank's trace spans
	rt := &router{
		s:           s,
		shard:       shard,
		rank:        rank,
		peers:       make([]*peer, shard.Ranks()),
		sets:        sets,
		repl:        repl,
		health:      newHealthTracker(shard.Ranks(), rank, cfg.FailThreshold),
		snapDir:     cfg.SnapshotDir,
		totalPoints: cfg.TotalPoints,
		hbInterval:  cfg.HeartbeatInterval,
		pingTimeout: cfg.PingTimeout,
		hbStop:      make(chan struct{}),
	}
	if cfg.SnapshotDir != "" {
		rt.sections = newSectionServer(cfg.SnapshotDir)
	}
	for r := range rt.peers {
		if r == rank {
			continue
		}
		rt.peers[r] = &peer{
			rank:        r,
			addr:        cfg.ServeAddrs[r],
			dims:        shard.Dims(),
			dialTimeout: cfg.PeerDialTimeout,
			callTimeout: cfg.PeerCallTimeout,
			redials:     &s.statRedials,
		}
	}
	s.cluster = rt
	return s, nil
}

// router executes the distributed query pipeline for one rank. Each routed
// request runs in its own goroutine (tracked by Server.routes).
type router struct {
	s     *Server
	shard *panda.DistTree
	rank  int
	peers []*peer // peers[rank] == nil (self)

	sets        [][]int // shard → holder ranks, primary first
	repl        int     // placement replication factor
	health      *healthTracker
	sections    *sectionServer // nil: section streaming disabled
	snapDir     string
	totalPoints int64

	hbInterval  time.Duration
	pingTimeout time.Duration
	hbStop      chan struct{}
	stopOnce    sync.Once
	replicating atomic.Bool // one repair pass at a time
}

func (rt *router) closePeers() {
	rt.stopOnce.Do(func() { close(rt.hbStop) })
	for _, p := range rt.peers {
		if p != nil {
			p.close()
		}
	}
	if rt.sections != nil {
		rt.sections.close()
	}
}

// shardTree returns this rank's copy of shard s (own tree or replica) from
// the default tenant's slots, nil if not held.
func (rt *router) shardTree(s int) *panda.Tree {
	return rt.s.def.shards[s].Load()
}

// liveHolders appends shard s's currently-routable holders in preference
// order: the static set (primary first) filtered by health, self included
// only when it actually holds a copy. A rank that re-replicated s beyond
// the static set adds itself last — better a detour than no answer.
func (rt *router) liveHolders(s int, out []int) []int {
	inSet := false
	held := rt.shardTree(s) != nil
	for _, h := range rt.sets[s] {
		if h == rt.rank {
			inSet = true
			if held {
				out = append(out, h)
			}
			continue
		}
		if rt.health.live(h) {
			out = append(out, h)
		}
	}
	if held && !inSet {
		out = append(out, rt.rank)
	}
	return out
}

// route answers one external request. It owns p and returns it to the pool.
// Observation happens when the handler answers (Server.flush),
// while p is still alive, so the stage decomposition and trace capture see
// the request's full ledger.
func (rt *router) route(p *pending) {
	p.dequeue()
	switch p.req.Kind {
	case proto.KindKNN:
		rt.routeKNN(p)
	case proto.KindRadius:
		rt.routeRadius(p)
	case proto.KindShardKNN:
		rt.routeShardKNN(p)
	case proto.KindShardRemoteKNN, proto.KindShardRadius:
		rt.routeShardLocal(p)
	case proto.KindFetchSection:
		rt.routeFetchSection(p)
	}
}

// localStage runs one request against tree — one of this rank's shard
// slots — through the micro-batching dispatcher and returns copies of the
// results (the dispatcher's arenas are reused). The dispatcher's charges to
// the internal stage (intake wait, batch assembly, engine) are added to p's
// ledger, so the routed request carries its owner-local time in the right
// stages. Returned offsets are 0-based.
func (rt *router) localStage(p *pending, tree *panda.Tree, kind uint8, k, nq int, r2 float32, coords []float32) ([]panda.Neighbor, []int32, error) {
	s := rt.s
	lp := s.getPending()
	lp.eng = s.def // cluster ranks serve one dataset: the default tenant
	lp.tree = tree
	lp.req.ID = 0
	lp.req.Kind = kind
	lp.req.K = k
	lp.req.NQ = nq
	lp.req.R2 = r2
	lp.req.Coords = append(lp.req.Coords[:0], coords...)
	type localOut struct {
		flat []panda.Neighbor
		offs []int32
		err  error
	}
	ch := make(chan localOut, 1)
	lp.done = func(flat []panda.Neighbor, offsets []int32, err error) {
		out := localOut{err: err}
		if err == nil {
			out.flat = append([]panda.Neighbor(nil), flat...)
			out.offs = make([]int32, len(offsets))
			for i, o := range offsets {
				out.offs[i] = o - offsets[0] // normalize arena-absolute offsets
			}
		}
		// done runs before the dispatcher recycles lp, so its ledger is
		// complete and still ours to read.
		for i := range lp.spent {
			p.spent[i].Add(lp.spent[i].Load())
		}
		ch <- out
	}
	lp.arrived = time.Now()
	s.intake <- lp
	out := <-ch
	return out.flat, out.offs, out.err
}

// routeKNN answers one KNN request (possibly a batch whose queries have
// different owners): each owner shard's queries run at that shard's first
// live holder — here when this rank holds a copy, forwarded down the holder
// chain otherwise.
func (rt *router) routeKNN(p *pending) {
	s := rt.s
	defer s.putPending(p)
	k := p.req.K
	nq := p.req.NQ
	dims := rt.shard.Dims()
	coords := p.req.Coords

	// Step 1 — find the owner shard, grouping queries per shard.
	groups := make([][]int, rt.shard.Ranks())
	for i := 0; i < nq; i++ {
		o := rt.shard.Owner(coords[i*dims : (i+1)*dims])
		groups[o] = append(groups[o], i)
	}

	res := make([][]panda.Neighbor, nq)
	var wg sync.WaitGroup
	var errs firstErr
	for o, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(o int, idx []int) {
			defer wg.Done()
			errs.set(rt.serveShardGroup(p, o, coords, idx, k, dims, res))
		}(o, idx)
	}
	wg.Wait()
	rt.reply(p, res, errs.err)
}

// firstErr keeps the first error reported by concurrent legs of one
// request; read err after the legs are joined.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// walkHolders runs one step for shard s at its live holders in preference
// order until a leg succeeds; leg(h) does the work at holder h, this rank
// or a peer. A transport error marks the peer failed, and every error walks
// on to the next holder — a semantic refusal (e.g. a replica not yet
// fetched) comes from a live peer that just cannot answer. A success
// anywhere but the primary counts one failover; answers are bit-identical
// either way (replicas open the same snapshot bytes). Returns the last
// leg's error when no holder answered.
func (rt *router) walkHolders(s int, leg func(h int) error) error {
	holders := rt.liveHolders(s, nil)
	if len(holders) == 0 {
		return fmt.Errorf("shard %d: no live holder", s)
	}
	var err error
	for _, h := range holders {
		if err = leg(h); err != nil {
			if h != rt.rank && isTransportErr(err) {
				rt.health.fail(h)
				rt.s.statPeerFailures.Add(1)
			}
			continue
		}
		if h != rt.rank {
			rt.health.ok(h)
		}
		if h != rt.sets[s][0] {
			rt.s.statFailovers.Add(1)
		}
		return nil
	}
	return err
}

// serveShardGroup answers owner shard o's queries (coords rows idx) at the
// shard's first live holder: the owner pipeline here when this rank holds a
// copy, a KindShardKNN forward otherwise. Forwarding is charged to the
// remote-exchange stage of p — from this rank's vantage the whole owner
// pipeline ran on the other side of a peer round-trip (the forwarded rank's
// own decomposition comes back as trace spans when p is traced).
func (rt *router) serveShardGroup(p *pending, o int, coords []float32, idx []int, k, dims int, res [][]panda.Neighbor) error {
	packed := gatherCoords(coords, idx, dims)
	return rt.walkHolders(o, func(h int) error {
		if h == rt.rank {
			out := make([][]panda.Neighbor, len(idx))
			if err := rt.ownedShardKNN(p, rt.shardTree(o), o, packed, k, out); err != nil {
				return err
			}
			for j, qi := range idx {
				res[qi] = out[j]
			}
			return nil
		}
		legStart := time.Now()
		flat, offs, err := rt.peers[h].forwardShardKNN(o, packed, k, dims, p.trace)
		p.charge(proto.StageRemoteExchange, time.Since(legStart))
		if err != nil {
			return fmt.Errorf("forward shard %d to rank %d: %w", o, h, err)
		}
		if len(offs) != len(idx)+1 {
			return fmt.Errorf("rank %d answered %d queries, want %d", h, len(offs)-1, len(idx))
		}
		for j, qi := range idx {
			res[qi] = flat[offs[j]:offs[j+1]]
		}
		return nil
	})
}

// maxExchangeWorkers bounds how many of a batch's remote-candidate
// exchanges run concurrently. Exchanges are network round-trips, so
// serializing them would make a boundary-heavy batch cost queries×RTT; a
// small pool overlaps them without letting one giant batch flood the peers.
const maxExchangeWorkers = 16

// ownedShardKNN is the owner-side pipeline for the queries in coords, all
// owned by shard o, run on tree — this rank's copy of o, its own shard or a
// replica alike: local KNN through the micro-batching dispatcher (§III-B
// step 2), then the bounded remote-candidate exchange and top-k merge
// (steps 3–5) per query whose r'-ball crosses shard boundaries — exchanges
// for different queries are independent round-trips and run concurrently.
// Query j's answer lands in res[j]; the first failure is returned.
func (rt *router) ownedShardKNN(p *pending, tree *panda.Tree, o int, coords []float32, k int, res [][]panda.Neighbor) error {
	dims := rt.shard.Dims()
	lflat, loffs, err := rt.localStage(p, tree, proto.KindKNN, k, len(res), 0, coords)
	if err != nil {
		return err
	}
	workers := min(len(res), maxExchangeWorkers)
	var errs firstErr
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var targets []int
			for {
				j := int(cursor.Add(1)) - 1
				if j >= len(res) {
					return
				}
				nbrs := lflat[loffs[j]:loffs[j+1]]
				q := coords[j*dims : (j+1)*dims]
				// r'² = distance to the kth local candidate; unbounded when
				// the local shard holds fewer than k points. The exchange
				// is strict (candidates closer than r'²), exactly like the
				// SPMD engine: a remote candidate tying the kth local
				// candidate's distance can never displace it (the merge's
				// accept rule is strictly-closer too), so fetching boundary
				// ties would be wasted traffic.
				r2 := float32(math.MaxFloat32)
				if len(nbrs) == k {
					r2 = nbrs[k-1].Dist2
				}
				// Exclude the owner SHARD, not this rank: on the failover
				// path they differ, and shard o's candidates are already in
				// hand locally.
				targets = rt.shard.RanksWithin(q, r2, o, targets[:0])
				if len(targets) == 0 {
					res[j] = nbrs
					continue
				}
				exStart := time.Now()
				merged, err := rt.exchange(q, k, r2, nbrs, targets, p.trace)
				p.charge(proto.StageRemoteExchange, time.Since(exStart))
				if err != nil {
					errs.set(err)
					return
				}
				res[j] = merged
			}
		}()
	}
	wg.Wait()
	return errs.err
}

// exchange performs §III-B steps 4–5 for one owned query: bounded remote
// candidate searches on every target shard (each at its first live holder),
// then the same top-k merge the SPMD engine performs.
func (rt *router) exchange(q []float32, k int, r2 float32, local []panda.Neighbor, targets []int, tc *traceCtx) ([]panda.Neighbor, error) {
	type remoteOut struct {
		nbrs []panda.Neighbor
		err  error
	}
	outs := make([]remoteOut, len(targets))
	var wg sync.WaitGroup
	for ti, t := range targets {
		wg.Add(1)
		go func(ti, t int) {
			defer wg.Done()
			nbrs, err := rt.shardCandidates(t, q, k, r2, tc)
			outs[ti] = remoteOut{nbrs: nbrs, err: err}
		}(ti, t)
	}
	wg.Wait()
	items := make([]knnheap.Item, 0, (len(targets)+1)*k)
	for _, nb := range local {
		items = append(items, knnheap.Item{Dist2: nb.Dist2, ID: nb.ID})
	}
	for ti, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("remote KNN on shard %d: %w", targets[ti], out.err)
		}
		for _, nb := range out.nbrs {
			items = append(items, knnheap.Item{Dist2: nb.Dist2, ID: nb.ID})
		}
	}
	top := knnheap.MergeTopK(k, items)
	merged := make([]panda.Neighbor, len(top))
	for i, it := range top {
		merged[i] = panda.Neighbor{ID: it.ID, Dist2: it.Dist2}
	}
	return merged, nil
}

// shardCandidates fetches shard t's bounded candidates (strictly within r2
// of q) from its first live holder: a local copy when this rank holds one,
// any other holder via KindShardRemoteKNN.
func (rt *router) shardCandidates(t int, q []float32, k int, r2 float32, tc *traceCtx) ([]panda.Neighbor, error) {
	var nbrs []panda.Neighbor
	err := rt.walkHolders(t, func(h int) (err error) {
		if h == rt.rank {
			nbrs = rt.shardTree(t).KNNBoundedInto(q, k, r2, nil)
			return nil
		}
		nbrs, err = rt.peers[h].shardRemoteKNN(t, q, k, r2, tc)
		return err
	})
	return nbrs, err
}

// shardRadiusAt fetches shard t's points within r2 of q from its first live
// holder: through this rank's dispatcher when it holds a copy (the leg
// charges queue/linger (batch assembly)/engine to p's ledger), otherwise as
// a peer round-trip charged to remote exchange.
func (rt *router) shardRadiusAt(p *pending, t int, q []float32, r2 float32) ([]panda.Neighbor, error) {
	var nbrs []panda.Neighbor
	err := rt.walkHolders(t, func(h int) (err error) {
		if h == rt.rank {
			nbrs, _, err = rt.localStage(p, rt.shardTree(t), proto.KindRadius, 0, 1, r2, q)
			return err
		}
		legStart := time.Now()
		nbrs, err = rt.peers[h].shardRadius(t, q, r2, p.trace)
		p.charge(proto.StageRemoteExchange, time.Since(legStart))
		return err
	})
	return nbrs, err
}

// routeRadius answers one radius request: the ball is known up front, so
// every shard whose domain intersects it contributes its matches (each from
// its first live holder) and the router merges by (distance, id) — the
// single-tree result order.
func (rt *router) routeRadius(p *pending) {
	s := rt.s
	defer s.putPending(p)
	q := p.req.Coords
	r2 := p.req.R2

	targets := rt.shard.RanksWithin(q, r2, -1, nil)
	outs := make([][]panda.Neighbor, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for ti, t := range targets {
		wg.Add(1)
		go func(ti, t int) {
			defer wg.Done()
			outs[ti], errs[ti] = rt.shardRadiusAt(p, t, q, r2)
		}(ti, t)
	}
	wg.Wait()
	total := 0
	for ti := range targets {
		if errs[ti] != nil {
			rt.reply(p, nil, fmt.Errorf("radius on shard %d: %w", targets[ti], errs[ti]))
			return
		}
		total += len(outs[ti])
	}
	if total > proto.MaxResultNeighbors {
		rt.reply(p, nil, fmt.Errorf("radius search matched %d points, exceeding the %d-neighbor response cap; shrink r2",
			total, proto.MaxResultNeighbors))
		return
	}
	flat := make([]panda.Neighbor, 0, total)
	for _, out := range outs {
		flat = append(flat, out...)
	}
	sort.Slice(flat, func(a, b int) bool {
		if flat[a].Dist2 != flat[b].Dist2 {
			return flat[a].Dist2 < flat[b].Dist2
		}
		return flat[a].ID < flat[b].ID
	})
	rt.reply(p, [][]panda.Neighbor{flat}, nil)
}

// routeShardKNN answers a forwarded KindShardKNN batch: the owner pipeline
// for the addressed shard, on this rank's copy (its own tree or a replica).
// Refusing (shard not held) is a semantic error — the forwarder walks on to
// the next holder.
func (rt *router) routeShardKNN(p *pending) {
	s := rt.s
	defer s.putPending(p)
	o := p.req.Shard
	if o >= rt.shard.Ranks() {
		rt.reply(p, nil, fmt.Errorf("shard %d out of range for %d ranks", o, rt.shard.Ranks()))
		return
	}
	tree := rt.shardTree(o)
	if tree == nil {
		rt.reply(p, nil, fmt.Errorf("shard %d not held on rank %d", o, rt.rank))
		return
	}
	res := make([][]panda.Neighbor, p.req.NQ)
	rt.reply(p, res, rt.ownedShardKNN(p, tree, o, p.req.Coords, p.req.K, res))
}

// routeShardLocal answers the shard-addressed single-shard kinds
// (KindShardRemoteKNN, KindShardRadius) directly from this rank's copy of
// the shard, its own or a replica, on the router goroutine — never through
// the dispatcher.
func (rt *router) routeShardLocal(p *pending) {
	s := rt.s
	defer s.putPending(p)
	t := p.req.Shard
	if t >= rt.shard.Ranks() {
		rt.reply(p, nil, fmt.Errorf("shard %d out of range for %d ranks", t, rt.shard.Ranks()))
		return
	}
	tree := rt.shardTree(t)
	if tree == nil {
		rt.reply(p, nil, fmt.Errorf("shard %d not held on rank %d", t, rt.rank))
		return
	}
	var nbrs []panda.Neighbor
	var err error
	engStart := time.Now()
	if p.req.Kind == proto.KindShardRemoteKNN {
		nbrs = tree.KNNBoundedInto(p.req.Coords, p.req.K, p.req.R2, nil)
	} else if nbrs = tree.RadiusSearchInto(p.req.Coords, p.req.R2, nil); len(nbrs) > proto.MaxResultNeighbors {
		err = fmt.Errorf("radius search matched %d points, exceeding the %d-neighbor response cap; shrink r2",
			len(nbrs), proto.MaxResultNeighbors)
	}
	p.charge(proto.StageEngine, time.Since(engStart))
	rt.reply(p, [][]panda.Neighbor{nbrs}, err)
}

// routeFetchSection serves one chunk of a held shard's snapshot file (or
// the manifest, via proto.ManifestShard) to a re-replicating or joining
// peer, counting the bytes in Stats.ReplicationBytes.
func (rt *router) routeFetchSection(p *pending) {
	s := rt.s
	defer s.putPending(p)
	if rt.sections == nil {
		rt.reply(p, nil, fmt.Errorf("section streaming disabled: server has no snapshot directory"))
		return
	}
	engStart := time.Now()
	data, fileSize, crc, err := rt.sections.read(p.req.Shard, p.req.FetchOff, p.req.FetchLen, nil)
	p.charge(proto.StageEngine, time.Since(engStart)) // disk read: the local work of this kind
	if err != nil {
		rt.reply(p, nil, err)
		return
	}
	s.statReplBytes.Add(int64(len(data)))
	var o outbox
	s.stage(&o, p, time.Now(), nil, func(b []byte) []byte {
		return proto.AppendSectionDataResponse(b, p.req.ID, p.req.Shard, p.req.FetchOff, fileSize, crc, data)
	})
	s.flush(&o)
}

// gatherCoords packs the selected queries' coordinates row-major.
func gatherCoords(coords []float32, idx []int, dims int) []float32 {
	out := make([]float32, 0, len(idx)*dims)
	for _, qi := range idx {
		out = append(out, coords[qi*dims:(qi+1)*dims]...)
	}
	return out
}

// reply answers a routed request with its per-query neighbor lists in
// order, or with err when it is set, through Server.respond and
// Server.flush as a round of one. A traced client gets the stage
// waterfall — this rank's ledger plus every remote span collected on the
// way — as a response trailer.
func (rt *router) reply(p *pending, res [][]panda.Neighbor, err error) {
	writeStart := time.Now()
	var offsets []int32
	var flat []panda.Neighbor
	if err == nil {
		total := 0
		for _, r := range res {
			total += len(r)
		}
		offsets = make([]int32, len(res)+1)
		flat = make([]panda.Neighbor, 0, total)
		for i, r := range res {
			flat = append(flat, r...)
			offsets[i+1] = int32(len(flat))
		}
	}
	var o outbox
	rt.s.respond(&o, p, writeStart, offsets, flat, err)
	rt.s.flush(&o)
}
