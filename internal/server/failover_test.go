package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda"
	"panda/internal/proto"
)

// replicatedTestConfig returns aggressive health timings so the tests
// notice a killed rank in milliseconds instead of seconds.
func replicatedTestConfig() ClusterConfig {
	return ClusterConfig{
		Config:            Config{MaxBatch: 48},
		PeerDialTimeout:   2 * time.Second,
		PeerCallTimeout:   5 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		PingTimeout:       500 * time.Millisecond,
		FailThreshold:     2,
	}
}

// writeReplicatedSnapshot builds a p-rank mesh cluster over coords and
// persists it into dir with the given replication factor, returning the
// builder cluster (still running; its servers are unused here).
func writeReplicatedSnapshot(t *testing.T, tc *testCluster, dir string, replication int) {
	t.Helper()
	p := len(tc.dts)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = tc.dts[r].WriteSnapshotReplicated(dir, replication)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d WriteSnapshotReplicated: %v", r, err)
		}
	}
}

// warmReplicatedCluster warm-starts a serving cluster where rank r opens
// dirs[r] (pass the same directory p times to share one). Each prepare hook
// sees every rank's server before it starts serving. Returns the servers and
// their addresses.
func warmReplicatedCluster(t *testing.T, dirs []string, total int64, prepare ...func(r int, srv *Server)) ([]*Server, []string) {
	t.Helper()
	p := len(dirs)
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := 0; r < p; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	servers := make([]*Server, p)
	for r := 0; r < p; r++ {
		cs, err := panda.OpenClusterSnapshotReplicated(dirs[r], r)
		if err != nil {
			t.Fatalf("rank %d OpenClusterSnapshotReplicated: %v", r, err)
		}
		t.Cleanup(func() { cs.Close() })
		cfg := replicatedTestConfig()
		cfg.ServeAddrs = addrs
		cfg.TotalPoints = total
		cfg.ReplicaSets = cs.ReplicaSets
		cfg.Replicas = cs.Replicas
		cfg.SnapshotDir = dirs[r]
		servers[r], err = NewCluster(cs.Tree, cfg)
		if err != nil {
			t.Fatalf("rank %d NewCluster: %v", r, err)
		}
		for _, prep := range prepare {
			prep(r, servers[r])
		}
		go servers[r].Serve(lns[r])
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, srv := range servers {
			srv.Shutdown(ctx)
		}
	})
	// Wait until every rank is actually accepting, so a test that kills a
	// rank immediately cannot race its Serve goroutine.
	for r, addr := range addrs {
		c, err := panda.Dial(addr)
		if err != nil {
			t.Fatalf("rank %d never came up: %v", r, err)
		}
		c.Close()
	}
	return servers, addrs
}

// kill is the in-process kill -9 equivalent: Shutdown with an
// already-canceled context closes the listener, fails the peer links, and
// drops every connection without draining.
func kill(srv *Server) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)
}

// runVerifiedWorkload sends rounds of mixed batch-KNN + radius queries on
// c and checks every answer bit-for-bit against ref. Any error fails the
// workload (failover must be invisible to clients).
func runVerifiedWorkload(ref *panda.Tree, c *panda.Client, dims, rounds int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	queries := make([]float32, 32*dims)
	for round := 0; round < rounds; round++ {
		for i := range queries {
			queries[i] = rng.Float32() * 1.1
		}
		k := 1 + rng.Intn(8)
		got, err := c.KNNBatch(queries, k)
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		for qi := range got {
			if want := ref.KNN(queries[qi*dims:(qi+1)*dims], k); !sameNeighbors(got[qi], want) {
				return fmt.Errorf("round %d query %d: answer differs from reference tree", round, qi)
			}
		}
		q := queries[:dims]
		r2 := rng.Float32() * 0.01
		gotR, err := c.RadiusSearch(q, r2)
		if err != nil {
			return fmt.Errorf("round %d: radius: %w", round, err)
		}
		if want := ref.RadiusSearch(q, r2); !sameNeighbors(gotR, want) {
			return fmt.Errorf("round %d: radius differs from reference tree", round)
		}
	}
	return nil
}

// TestReplicaFailoverKillRankE2E is the tentpole's acceptance test: a
// 4-rank R=2 warm-started cluster loses one rank mid-workload (kill -9
// equivalent) and every subsequent query through the survivors still
// succeeds bit-identically to a single tree over the union of the shards —
// no client-visible errors, answered via the dead rank's replica. The dead
// rank's shard is then re-replicated onto the next live rank over the
// section-streaming protocol.
func TestReplicaFailoverKillRankE2E(t *testing.T) {
	const (
		dims   = 3
		n      = 9000
		p      = 4
		victim = 1
	)
	coords := uniformCoords(n, dims, 41)
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, coords, dims, p, Config{MaxBatch: 48})
	dir := t.TempDir()
	writeReplicatedSnapshot(t, tc, dir, 2)

	dirs := make([]string, p)
	for r := range dirs {
		dirs[r] = dir
	}
	servers, addrs := warmReplicatedCluster(t, dirs, n)

	// Phase 1: the healthy replicated cluster answers bit-identically.
	for ci := 0; ci < p; ci++ {
		c, err := panda.Dial(addrs[ci])
		if err != nil {
			t.Fatalf("dial rank %d: %v", ci, err)
		}
		defer c.Close()
		if err := runVerifiedWorkload(ref, c, dims, 4, int64(100+ci)); err != nil {
			t.Fatalf("healthy phase, rank %d: %v", ci, err)
		}
	}

	// Kill one rank without draining, mid-lifetime.
	killedAt := time.Now()
	kill(servers[victim])

	// Detection latency: before any query traffic touches the dead rank,
	// every survivor's heartbeat alone must mark it dead within the bound
	// FailThreshold×HeartbeatInterval + PingTimeout (= 600ms with the test
	// config) plus scheduling slack. A heartbeat sweep that serializes
	// behind slow probes would blow through this.
	detectBudget := time.Duration(replicatedTestConfig().FailThreshold)*replicatedTestConfig().HeartbeatInterval +
		replicatedTestConfig().PingTimeout + 1500*time.Millisecond
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		for servers[r].cluster.health.live(victim) {
			if since := time.Since(killedAt); since > detectBudget {
				t.Fatalf("rank %d still considers the killed rank live after %v (budget %v)", r, since, detectBudget)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Phase 2: every survivor keeps answering every query — including ones
	// owned by the dead rank's shard — with zero errors and bit-identical
	// results. The first attempts pay a failed forward and walk to the
	// replica; nothing surfaces to the client.
	var wg sync.WaitGroup
	errCh := make(chan error, p)
	for ci := 0; ci < p; ci++ {
		if ci == victim {
			continue
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := panda.Dial(addrs[ci])
			if err != nil {
				errCh <- fmt.Errorf("dial survivor %d: %w", ci, err)
				return
			}
			defer c.Close()
			if err := runVerifiedWorkload(ref, c, dims, 25, int64(200+ci)); err != nil {
				errCh <- fmt.Errorf("survivor %d: %w", ci, err)
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	var failovers, peerFailures int64
	for r, srv := range servers {
		if r == victim {
			continue
		}
		st := srv.Stats()
		failovers += st.Failovers
		peerFailures += st.PeerFailures
	}
	if failovers == 0 {
		t.Fatal("no failovers counted: the dead rank's queries were not answered by a replica")
	}
	if peerFailures == 0 {
		t.Fatal("no peer failures counted despite a killed rank")
	}

	// Re-replication: shard victim's holders were {victim, victim+1}; with
	// the victim dead the desired set becomes {victim+1, victim+2}, so rank
	// victim+2 must pull a copy from rank victim+1 over section streaming.
	puller := (victim + 2) % p
	source := (victim + 1) % p
	deadline := time.Now().Add(15 * time.Second)
	for servers[puller].cluster.shardTree(victim) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never re-replicated shard %d", puller, victim)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := servers[source].Stats().ReplicationBytes; got == 0 {
		t.Fatalf("rank %d served shard %d to rank %d but counted 0 replication bytes", source, victim, puller)
	}

	// The freshly pulled replica answers: queries still verify everywhere.
	c, err := panda.Dial(addrs[puller])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := runVerifiedWorkload(ref, c, dims, 6, 300); err != nil {
		t.Fatalf("after re-replication: %v", err)
	}

	// Drain handoff check: the rank serving the dead rank's shard is now
	// its only live static holder, so it must refuse to drain; a rank whose
	// shards are all still covered may leave.
	if err := servers[source].Drainable(); err == nil {
		t.Fatalf("rank %d is the last static holder of shard %d but reported drainable", source, victim)
	}
	// The puller's shards all have another live holder (shard victim+2 on
	// victim+3, shard victim+1 on victim+1's survivor, and its fresh copy
	// of shard victim on the source rank), so it may leave.
	if err := servers[puller].Drainable(); err != nil {
		t.Fatalf("rank %d with fully covered shards refused to drain: %v", puller, err)
	}
}

// TestFailoverLegsShareDispatchRound kills a primary and sends one batch
// mixing queries of the failover rank's own shard and of the dead rank's
// shard to the failover rank, whose dispatcher is held. Both owner-local
// legs — own tree and replica — must queue on its intake and run in the
// same dispatch round, answer bit-identically to a single tree over the
// union of the shards, and count in the rank's tenant and global queries.
// The routed request is charged its legs' dispatcher time: queue_wait at
// least the interval the dispatcher was held, and nonzero engine time.
func TestFailoverLegsShareDispatchRound(t *testing.T) {
	const (
		dims     = 3
		n        = 6000
		p        = 4
		victim   = 0
		failover = 1 // holds shard victim's replica
		perShard = 3
		k        = 6
	)
	coords := uniformCoords(n, dims, 53)
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, coords, dims, p, Config{})
	dir := t.TempDir()
	writeReplicatedSnapshot(t, tc, dir, 2)
	dirs := []string{dir, dir, dir, dir}
	hold := make(chan struct{})
	servers, addrs := warmReplicatedCluster(t, dirs, n, func(r int, srv *Server) {
		if r == failover {
			srv.hold = hold
		}
	})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release) // before the cluster's Shutdown, which drains the dispatcher

	kill(servers[victim])
	srv := servers[failover]
	waitUntil(t, "the failover rank to mark the victim dead", func() bool { return !srv.cluster.health.live(victim) })

	// perShard queries owned by the dead shard, then perShard by the
	// failover rank's own shard.
	rng := rand.New(rand.NewSource(7))
	var batch []float32
	for _, shard := range []int{victim, failover} {
		for got := 0; got < perShard; {
			q := []float32{rng.Float32(), rng.Float32(), rng.Float32()}
			if tc.dts[0].Owner(q) == shard {
				batch = append(batch, q...)
				got++
			}
		}
	}
	c, err := panda.Dial(addrs[failover])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type answer struct {
		res [][]panda.Neighbor
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := c.KNNBatch(batch, k)
		done <- answer{res, err}
	}()
	waitUntil(t, "both owner-local legs on the held intake", func() bool { return len(srv.intake) == 2 })
	// Hold a while longer, well above clock noise. Each leg waits at least
	// held: it was enqueued before heldFrom and is dequeued after release.
	heldFrom := time.Now()
	time.Sleep(10 * time.Millisecond)
	held := time.Since(heldFrom)
	release()
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	for i := range a.res {
		if want := ref.KNN(batch[i*dims:(i+1)*dims], k); !sameNeighbors(a.res[i], want) {
			t.Fatalf("query %d: got %v, want %v", i, a.res[i], want)
		}
	}
	st := srv.Stats()
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want both legs in 1 dispatch round", st.Batches)
	}
	if want := int64(2 * perShard); st.Queries != want || srv.TenantStats()[proto.DefaultDataset].Queries != want {
		t.Errorf("Queries = %d (tenant %d), want %d: replica-served queries must count",
			st.Queries, srv.TenantStats()[proto.DefaultDataset].Queries, want)
	}
	if st.Failovers == 0 {
		t.Error("no failover counted for the dead shard's queries")
	}
	waitObserved(t, srv, 1)
	m := writeExposition(t, srv)
	if got := m[`panda_stage_latency_seconds_sum{stage="queue_wait"}`]; got < held.Seconds() {
		t.Errorf("queue_wait sum = %v s, want at least the %v the dispatcher was held", got, held)
	}
	if got := m[`panda_stage_latency_seconds_sum{stage="engine"}`]; got <= 0 {
		t.Errorf("engine sum = %v s, want the legs' engine time", got)
	}
}

// TestJoinStreamsSnapshot is the replacement-rank path: a 3-rank R=2
// cluster loses rank 2; FetchClusterSnapshot streams the manifest and rank
// 2's shard files from the survivors into an empty directory, and a new
// server warm-started from it takes over the dead rank's address and
// answers bit-identically — the survivors never stopped serving.
func TestJoinStreamsSnapshot(t *testing.T) {
	const (
		dims   = 3
		n      = 6000
		p      = 3
		victim = 2
	)
	coords := uniformCoords(n, dims, 51)
	ref, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, coords, dims, p, Config{MaxBatch: 48})
	buildDir := t.TempDir()
	writeReplicatedSnapshot(t, tc, buildDir, 2)

	// Per-rank directories (manifest + the two shards each rank holds), so
	// the join demonstrably streams over the network rather than finding
	// files already on disk.
	dirs := make([]string, p)
	for r := 0; r < p; r++ {
		dirs[r] = t.TempDir()
		files := []string{"manifest.json", fmt.Sprintf("rank-%d.pnds", r), fmt.Sprintf("rank-%d.pnds", (r+p-1)%p)}
		for _, f := range files {
			copyFile(t, filepath.Join(buildDir, f), filepath.Join(dirs[r], f))
		}
	}
	servers, addrs := warmReplicatedCluster(t, dirs, n)

	kill(servers[victim])

	// Stream a replacement snapshot from the survivors into a fresh dir.
	freshDir := t.TempDir()
	if err := FetchClusterSnapshot(freshDir, victim, addrs, 5*time.Second); err != nil {
		t.Fatalf("FetchClusterSnapshot: %v", err)
	}
	for _, f := range []string{"manifest.json", fmt.Sprintf("rank-%d.pnds", victim), fmt.Sprintf("rank-%d.pnds", (victim+p-1)%p)} {
		if _, err := os.Stat(filepath.Join(freshDir, f)); err != nil {
			t.Fatalf("join did not stream %s: %v", f, err)
		}
	}
	var streamed int64
	for r, srv := range servers {
		if r == victim {
			continue
		}
		streamed += srv.Stats().ReplicationBytes
	}
	if streamed == 0 {
		t.Fatal("survivors counted 0 replication bytes after a join fetch")
	}

	// Warm-start the replacement on the dead rank's address (SO_REUSEADDR
	// makes the rebind immediate).
	cs, err := panda.OpenClusterSnapshotReplicated(freshDir, victim)
	if err != nil {
		t.Fatalf("open streamed snapshot: %v", err)
	}
	defer cs.Close()
	cfg := replicatedTestConfig()
	cfg.ServeAddrs = addrs
	cfg.TotalPoints = n
	cfg.ReplicaSets = cs.ReplicaSets
	cfg.Replicas = cs.Replicas
	cfg.SnapshotDir = freshDir
	replacement, err := NewCluster(cs.Tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addrs[victim])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addrs[victim], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go replacement.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		replacement.Shutdown(ctx)
	})

	// The replacement answers the full query surface bit-identically (its
	// own shard from the streamed file, others via its fresh peer links).
	c, err := panda.Dial(addrs[victim])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := runVerifiedWorkload(ref, c, dims, 10, 400); err != nil {
		t.Fatalf("replacement rank: %v", err)
	}
	// And the survivors never stopped: queries through them verify too.
	c0, err := panda.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if err := runVerifiedWorkload(ref, c0, dims, 10, 401); err != nil {
		t.Fatalf("survivor after join: %v", err)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthTrackerThreshold pins the liveness rule: dead after thresh
// consecutive transport failures, live again after one success, self
// always live.
func TestHealthTrackerThreshold(t *testing.T) {
	h := newHealthTracker(3, 0, 2)
	for r := 0; r < 3; r++ {
		if !h.live(r) {
			t.Fatalf("rank %d dead at start", r)
		}
	}
	h.fail(1)
	if !h.live(1) {
		t.Fatal("one failure below threshold marked rank 1 dead")
	}
	h.fail(1)
	if h.live(1) {
		t.Fatal("rank 1 still live after reaching the failure threshold")
	}
	if dead := h.deadRanks(nil); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("deadRanks = %v, want [1]", dead)
	}
	h.ok(1)
	if !h.live(1) {
		t.Fatal("a success did not revive rank 1")
	}
	// Self never dies, whatever is reported about it.
	h.fail(0)
	h.fail(0)
	h.fail(0)
	if !h.live(0) {
		t.Fatal("self marked dead")
	}
}

// TestPeerDialBackoff pins the sticky-close fix: a failed dial arms a
// backoff window during which calls fail fast with a cached transport
// error instead of re-dialing in a tight loop.
func TestPeerDialBackoff(t *testing.T) {
	var redials atomic.Int64
	p := &peer{
		rank:        1,
		addr:        "127.0.0.1:1", // nothing listens here
		dims:        3,
		dialTimeout: 500 * time.Millisecond,
		callTimeout: 500 * time.Millisecond,
		redials:     &redials,
	}
	defer p.close()
	err := p.ping(200 * time.Millisecond)
	if err == nil {
		t.Fatal("ping to a dead address succeeded")
	}
	if !isTransportErr(err) {
		t.Fatalf("dial failure not classified as transport error: %v", err)
	}
	err2 := p.ping(200 * time.Millisecond)
	if err2 == nil {
		t.Fatal("second ping succeeded")
	}
	if !strings.Contains(err2.Error(), "backing off") {
		t.Fatalf("second ping did not hit the backoff window: %v", err2)
	}
	if !isTransportErr(err2) {
		t.Fatalf("backoff error not classified as transport error: %v", err2)
	}
}

// TestSingleNodeRejectsClusterKinds pins the serving guard: shard-addressed
// and section-streaming requests against a plain single-tree server are
// answered with KindError (not misrouted into the KNN path), and the
// connection stays usable.
func TestSingleNodeRejectsClusterKinds(t *testing.T) {
	const dims = 3
	tree, coords := testTree(t, 500, dims)
	_, addr := startServer(t, tree, Config{})
	nc := rawDial(t, addr)
	defer nc.Close()

	if _, err := nc.Write(frame(t, func(b []byte) []byte {
		return proto.AppendShardKNNRequest(b, 11, 0, 3, coords[:dims], dims)
	})); err != nil {
		t.Fatal(err)
	}
	payload, err := proto.ReadFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp proto.Response
	if err := proto.ConsumeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 11 || resp.Kind != proto.KindError {
		t.Fatalf("shard KNN on a single node got kind %d (id %d), want KindError", resp.Kind, resp.ID)
	}
	if !strings.Contains(resp.Err, "cluster mode") {
		t.Fatalf("error %q does not name cluster mode", resp.Err)
	}
	// The connection still answers ordinary queries.
	if _, err := nc.Write(frame(t, func(b []byte) []byte {
		return proto.AppendKNNRequest(b, 12, 3, coords[:dims], dims)
	})); err != nil {
		t.Fatal(err)
	}
	payload, err = proto.ReadFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.ConsumeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != proto.KindNeighbors {
		t.Fatalf("valid KNN after rejected cluster kind got kind %d", resp.Kind)
	}
}
