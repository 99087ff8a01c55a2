// Command panda-serve runs the PANDA KNN serving process: it builds (or
// warm-starts from a snapshot) a kd-tree over a dataset and answers KNN and
// radius-search queries over TCP with dynamic micro-batching (see
// internal/server for the protocol and batching semantics). Clients connect
// with panda.Dial.
//
// Usage:
//
//	panda-serve -in cosmo.pnda -addr :7077
//	panda-serve -dataset uniform -n 100000 -dims 3 -addr 127.0.0.1:0
//
// Either -in (a .pnda file written by `panda gen`, see internal/ptsio) or
// -dataset (a synthetic family generated in-process) selects the points.
// SIGINT or SIGTERM triggers a graceful shutdown: in-flight queries are
// answered, the serving counters are logged, and the process exits.
//
// # Snapshots and warm start
//
// -save-snapshot writes the built tree to a PNDS snapshot file after
// construction; -snapshot skips construction entirely and mmaps a snapshot
// instead (zero-copy, O(1) warm start — no dataset flags needed):
//
//	panda-serve -dataset cosmo -n 2000000 -save-snapshot cosmo.pnds -addr :7077
//	panda-serve -snapshot cosmo.pnds -addr :7077
//
// # Multi-dataset tenancy
//
// One process can serve several datasets: repeat -snapshot with name=path
// entries, or point -snapshot-dir at a directory of .pnds files (each file
// becomes a tenant named after its base name). The first tenant listed is
// the default — the one clients with an empty dataset selector bind to.
// Clients pick a tenant at handshake with panda.Dialer{Dataset: name} /
// panda-query -tenant:
//
//	panda-serve -snapshot cosmo=cosmo.pnds -snapshot plasma=plasma.pnds -addr :7077
//	panda-serve -snapshot-dir ./tenants -addr :7077
//
// # Cluster mode
//
// With -cluster, one panda-serve process runs per rank: the processes join
// a TCP mesh (-mesh lists every rank's mesh address, -rank selects this
// process's), build a distributed tree over their shards, and then each
// rank serves external clients on its entry of -serve. Every rank answers
// every query — non-owned queries are forwarded to their owner and the
// remote-candidate exchange runs when a query's neighbor ball crosses shard
// boundaries — so clients may panda.Dial any rank (or pass panda.Dial the
// whole list). Each rank derives its shard deterministically from the
// shared dataset flags: point i belongs to rank i mod ranks, and neighbor
// ids are global point indices, so answers are identical to a single
// panda-serve over the same dataset:
//
//	panda-serve -cluster -rank 0 -mesh 127.0.0.1:9101,127.0.0.1:9102 \
//	    -serve 127.0.0.1:7071,127.0.0.1:7072 -dataset uniform -n 100000
//	panda-serve -cluster -rank 1 -mesh 127.0.0.1:9101,127.0.0.1:9102 \
//	    -serve 127.0.0.1:7071,127.0.0.1:7072 -dataset uniform -n 100000
//
// In cluster mode -save-snapshot names a directory: every rank writes its
// shard (rank 0 also writes the manifest), and a later -snapshot on that
// directory warm-starts the rank from its file alone — no mesh, no SPMD
// build, no dataset flags:
//
//	panda-serve -cluster -rank 0 -snapshot snapdir -serve 127.0.0.1:7071,127.0.0.1:7072
//
// # Replication and fault tolerance
//
// -replication R (default 2) records an R-way placement map in the snapshot
// manifest: shard s is held by rank s plus its R-1 cyclic successors. A
// warm-started rank opens every shard file the placement assigns it and the
// serving layer fails queries over to replicas when a rank dies — answers
// stay bit-identical as long as one copy of each shard survives, because
// replicas are the same snapshot bytes. Ranks heartbeat each other, and a
// surviving rank that becomes responsible for a dead rank's shard streams a
// copy from another live holder automatically (the snapshot directory is
// also the re-replication landing zone).
//
// -join brings a replacement rank into a running cluster with zero
// downtime: before serving, the process streams the manifest and its
// assigned shard files from the live ranks into -snapshot's directory, then
// warm-starts from it as usual:
//
//	panda-serve -cluster -rank 1 -join -snapshot fresh-dir \
//	    -serve 127.0.0.1:7071,127.0.0.1:7072
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"panda"
	"panda/internal/core"
	"panda/internal/data"
	"panda/internal/proto"
	"panda/internal/ptsio"
	"panda/internal/server"
)

// config is panda-serve's command line, one field per flag.
type config struct {
	in, dataset string
	n, dims     int
	seed        uint64
	bucket      int
	threads     int
	addr        string
	batch       int
	grace       time.Duration

	maxInflight int
	metricsAddr string
	traceSample float64
	slowQuery   time.Duration
	debugPprof  bool

	snaps   snapshotFlag
	snapDir string
	snapOut string

	cluster     bool
	rank        int
	mesh        []string
	serve       []string
	replication int
	join        bool
	joinWait    time.Duration
	drain       bool
}

// parseFlags fills a config from the command line.
func parseFlags() *config {
	c := &config{}
	flag.StringVar(&c.in, "in", "", "dataset file (.pnda, from `panda gen`)")
	flag.StringVar(&c.dataset, "dataset", "", "synthetic dataset family (uniform|gaussian|cosmo|plasma|dayabay|sdss10|sdss15); alternative to -in")
	flag.IntVar(&c.n, "n", 100000, "synthetic point count (with -dataset)")
	flag.IntVar(&c.dims, "dims", 3, "synthetic dimensionality (uniform/gaussian only)")
	flag.Uint64Var(&c.seed, "seed", 1, "synthetic generator seed (with -dataset)")
	flag.IntVar(&c.bucket, "bucket", 32, "kd-tree bucket size")
	flag.IntVar(&c.threads, "threads", 0, "engine threads for tree construction and batched queries (0 = all cores)")
	flag.StringVar(&c.addr, "addr", ":7077", "listen address (single-node mode)")
	flag.IntVar(&c.batch, "batch", 64, "max queries coalesced into one engine call")
	flag.DurationVar(&c.grace, "grace", 10*time.Second, "graceful shutdown drain budget")

	flag.IntVar(&c.maxInflight, "max-inflight", 0, "admission limit: max queries admitted but unanswered before new requests are shed with an overload error (0 = unbounded)")
	flag.StringVar(&c.metricsAddr, "metrics", "", "HTTP listen address for the Prometheus /metrics endpoint (empty = disabled)")
	flag.Float64Var(&c.traceSample, "trace-sample", 0, "fraction of queries to trace server-side into the /debug/traces ring (0 = only client-requested and slow queries)")
	flag.DurationVar(&c.slowQuery, "slow-query", 0, "capture every query at or over this end-to-end latency into /debug/traces, regardless of sampling (0 = disabled)")
	flag.BoolVar(&c.debugPprof, "debug", false, "also serve net/http/pprof profiles under /debug/pprof/ on the -metrics listener")

	flag.StringVar(&c.snapDir, "snapshot-dir", "", "serve every .pnds file in this directory as a tenant named after its base name (single-node mode)")
	flag.StringVar(&c.snapOut, "save-snapshot", "", "write a PNDS snapshot file after building (cluster mode: snapshot directory)")

	flag.BoolVar(&c.cluster, "cluster", false, "run as one rank of a sharded cluster")
	flag.IntVar(&c.rank, "rank", 0, "this process's rank (with -cluster)")
	mesh := flag.String("mesh", "", "comma-separated rank mesh addresses, rank order (with -cluster; unused with -snapshot)")
	serve := flag.String("serve", "", "comma-separated rank serving addresses, rank order (with -cluster)")
	flag.IntVar(&c.replication, "replication", panda.DefaultReplication, "shard copies recorded in the snapshot manifest (with -cluster -save-snapshot)")
	flag.BoolVar(&c.join, "join", false, "stream the snapshot from live ranks into -snapshot's directory before warm-starting (with -cluster)")
	flag.DurationVar(&c.joinWait, "join-timeout", 60*time.Second, "per-call timeout while streaming the join snapshot")
	flag.BoolVar(&c.drain, "drain", false, "on SIGTERM, wait until every held shard has another live holder before leaving (with -cluster)")
	flag.Var(&c.snaps, "snapshot", "warm-start from a PNDS snapshot instead of building: a path (single tenant; cluster mode: snapshot directory), or name=path, repeatable, to serve several datasets from one process (first listed is the default tenant)")
	flag.Parse()
	c.mesh = splitAddrs(*mesh)
	c.serve = splitAddrs(*serve)
	return c
}

// serverConfig is the serving-layer part of the command line.
func (c *config) serverConfig() server.Config {
	return server.Config{MaxBatch: c.batch, MaxInFlight: c.maxInflight,
		TraceSample: c.traceSample, SlowQuery: c.slowQuery}
}

func main() {
	c := parseFlags()
	var err error
	if c.cluster {
		snapIn, serr := c.snaps.single()
		if serr != nil {
			err = fmt.Errorf("cluster mode: %w", serr)
		} else if c.snapDir != "" {
			err = fmt.Errorf("cluster mode serves one dataset per rank; -snapshot-dir is single-node only")
		} else {
			err = runCluster(c, snapIn)
		}
	} else {
		err = run(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "panda-serve:", err)
		os.Exit(1)
	}
}

// tenantSnap is one -snapshot entry: a snapshot path, optionally bound to a
// tenant name (empty name = the single-tenant/cluster form).
type tenantSnap struct {
	name, path string
}

// snapshotFlag collects repeated -snapshot values. Each value is either a
// bare path or name=path; the name half must be a valid dataset name, so a
// path that happens to contain '=' still parses as a path.
type snapshotFlag struct {
	entries []tenantSnap
}

func (f *snapshotFlag) String() string {
	var parts []string
	for _, e := range f.entries {
		if e.name != "" {
			parts = append(parts, e.name+"="+e.path)
		} else {
			parts = append(parts, e.path)
		}
	}
	return strings.Join(parts, ",")
}

func (f *snapshotFlag) Set(s string) error {
	if name, path, ok := strings.Cut(s, "="); ok && path != "" && proto.ValidateDatasetName(name) == nil {
		for _, e := range f.entries {
			if e.name == name {
				return fmt.Errorf("tenant %q listed twice", name)
			}
		}
		f.entries = append(f.entries, tenantSnap{name: name, path: path})
		return nil
	}
	f.entries = append(f.entries, tenantSnap{path: s})
	return nil
}

// single returns the lone un-named snapshot path, for the modes that serve
// exactly one dataset (cluster ranks, the build path).
func (f *snapshotFlag) single() (string, error) {
	switch len(f.entries) {
	case 0:
		return "", nil
	case 1:
		if f.entries[0].name != "" {
			return "", fmt.Errorf("-snapshot name=path selects a tenant; this mode serves a single dataset")
		}
		return f.entries[0].path, nil
	default:
		return "", fmt.Errorf("multiple -snapshot entries; this mode serves a single dataset")
	}
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// loadPoints resolves the dataset flags to row-major coordinates.
func loadPoints(c *config) ([]float32, int, error) {
	switch {
	case c.in != "":
		pts, _, err := ptsio.Load(c.in)
		if err != nil {
			return nil, 0, err
		}
		log.Printf("loaded %s: %d points, %d dims", c.in, pts.Len(), pts.Dims)
		return pts.Coords, pts.Dims, nil
	case c.dataset != "":
		var d data.Dataset
		var err error
		switch c.dataset {
		case "uniform":
			d = data.Uniform(c.n, c.dims, c.seed)
		case "gaussian":
			d = data.Gaussian(c.n, c.dims, c.seed)
		default:
			d, err = data.ByName(c.dataset, c.n, c.seed)
			if err != nil {
				return nil, 0, err
			}
		}
		log.Printf("generated %s: %d points, %d dims", d.Name, d.Points.Len(), d.Points.Dims)
		return d.Points.Coords, d.Points.Dims, nil
	default:
		return nil, 0, fmt.Errorf("one of -in, -dataset, or -snapshot is required")
	}
}

// obtainTree builds the tree from the dataset flags or warm-starts it from
// a snapshot, honoring -save-snapshot either way.
func obtainTree(c *config, snapIn string) (*panda.Tree, error) {
	threads := c.threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	var tree *panda.Tree
	if snapIn != "" {
		start := time.Now()
		var err error
		tree, err = panda.OpenSnapshot(snapIn)
		if err != nil {
			return nil, fmt.Errorf("opening snapshot: %w", err)
		}
		tree.SetThreads(threads)
		log.Printf("warm start: opened %s (%d points, %d dims) in %v",
			snapIn, tree.Len(), tree.Dims(), time.Since(start).Round(time.Microsecond))
	} else {
		coords, pdims, err := loadPoints(c)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tree, err = panda.Build(coords, pdims, nil, &panda.BuildOptions{
			BucketSize: c.bucket,
			Threads:    threads,
		})
		if err != nil {
			return nil, err
		}
		log.Printf("built tree over %d points in %v", tree.Len(), time.Since(start).Round(time.Millisecond))
	}
	if c.snapOut != "" {
		start := time.Now()
		if err := tree.WriteSnapshot(c.snapOut); err != nil {
			return nil, fmt.Errorf("saving snapshot: %w", err)
		}
		log.Printf("saved snapshot %s in %v", c.snapOut, time.Since(start).Round(time.Millisecond))
	}
	return tree, nil
}

// tenantList resolves the tenancy flags to (name, path) pairs: explicit
// -snapshot name=path entries first (listing order — the first is the
// default tenant), then -snapshot-dir's *.pnds files in name order.
func tenantList(snaps snapshotFlag, snapDir string) ([]tenantSnap, error) {
	var tenants []tenantSnap
	for _, e := range snaps.entries {
		name := e.name
		if name == "" {
			if len(snaps.entries) > 1 || snapDir != "" {
				return nil, fmt.Errorf("-snapshot %s: multi-tenant serving needs the name=path form", e.path)
			}
			name = proto.DefaultDataset
		}
		tenants = append(tenants, tenantSnap{name: name, path: e.path})
	}
	if snapDir != "" {
		paths, err := filepath.Glob(filepath.Join(snapDir, "*.pnds"))
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("-snapshot-dir %s holds no .pnds files", snapDir)
		}
		sort.Strings(paths)
		for _, p := range paths {
			name := strings.TrimSuffix(filepath.Base(p), ".pnds")
			if err := proto.ValidateDatasetName(name); err != nil {
				return nil, fmt.Errorf("-snapshot-dir %s: file %s does not name a servable tenant: %v", snapDir, filepath.Base(p), err)
			}
			tenants = append(tenants, tenantSnap{name: name, path: p})
		}
	}
	return tenants, nil
}

func run(c *config) error {
	tenants, err := tenantList(c.snaps, c.snapDir)
	if err != nil {
		return err
	}
	cfg := c.serverConfig()

	var srv *server.Server
	if len(tenants) > 0 && (len(tenants) > 1 || tenants[0].name != proto.DefaultDataset) {
		// Registry mode: every tenant warm-starts from its snapshot; the
		// first listed is the default for unselective clients.
		threads := c.threads
		if threads <= 0 {
			threads = runtime.GOMAXPROCS(0)
		}
		reg := server.NewRegistry()
		for _, ten := range tenants {
			start := time.Now()
			tree, err := panda.OpenSnapshot(ten.path)
			if err != nil {
				return fmt.Errorf("tenant %s: opening snapshot: %w", ten.name, err)
			}
			defer tree.Close()
			tree.SetThreads(threads)
			if err := reg.Add(ten.name, tree); err != nil {
				return err
			}
			log.Printf("tenant %s: opened %s (%d points, %d dims, fp=%016x) in %v",
				ten.name, ten.path, tree.Len(), tree.Dims(), tree.Fingerprint(),
				time.Since(start).Round(time.Microsecond))
		}
		srv, err = server.NewMulti(reg, cfg)
		if err != nil {
			return err
		}
		log.Printf("serving %d tenants (default %s)", len(tenants), tenants[0].name)
	} else {
		snapIn := ""
		if len(tenants) == 1 {
			snapIn = tenants[0].path
		}
		tree, err := obtainTree(c, snapIn)
		if err != nil {
			return err
		}
		defer tree.Close()
		srv = server.New(tree, cfg)
	}

	stopMetrics, err := startMetrics(srv, c.metricsAddr, c.debugPprof)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	log.Printf("serving on %s (batch=%d max-inflight=%d)", ln.Addr(), c.batch, c.maxInflight)
	return serveUntilSignal(srv, ln, c.grace, false, stopMetrics)
}

// startMetrics exposes srv's HTTP introspection surface on its own listener
// (kept off the query port: the query protocol is not HTTP, and scrapes must
// not compete with the intake for accepts): the Prometheus /metrics
// endpoint, the /debug/traces capture ring, and — only when debugPprof —
// the net/http/pprof profile handlers. Disabled when addr is empty; the
// returned stop function shuts the HTTP server down cleanly.
func startMetrics(srv *server.Server, addr string, debugPprof bool) (func(context.Context) error, error) {
	if addr == "" {
		return func(context.Context) error { return nil }, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", srv.MetricsHandler())
	mux.Handle("/debug/traces", srv.TracesHandler())
	if debugPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("metrics server: %v", err)
		}
	}()
	if debugPprof {
		log.Printf("metrics on http://%s/metrics (traces at /debug/traces, pprof at /debug/pprof/)", ln.Addr())
	} else {
		log.Printf("metrics on http://%s/metrics (traces at /debug/traces)", ln.Addr())
	}
	return hs.Shutdown, nil
}

// runCluster serves one rank of the sharded cluster: either the cold path
// (join the rank mesh, build this rank's DistTree shard) or the warm path
// (-snapshot: restore the shard and global tree from the rank's snapshot
// file, no mesh at all), then serve external clients on its -serve
// address. snapIn is the lone -snapshot directory ("" to build).
func runCluster(c *config, snapIn string) error {
	rank, mesh, serveAddrs := c.rank, c.mesh, c.serve
	if rank < 0 || rank >= len(serveAddrs) {
		return fmt.Errorf("-rank %d out of range for %d serve addresses", rank, len(serveAddrs))
	}
	if c.join {
		if snapIn == "" {
			return fmt.Errorf("-join needs -snapshot naming the directory to stream into")
		}
		start := time.Now()
		log.Printf("rank %d: joining — streaming snapshot from live ranks into %s", rank, snapIn)
		if err := server.FetchClusterSnapshot(snapIn, rank, serveAddrs, c.joinWait); err != nil {
			return fmt.Errorf("join: %w", err)
		}
		log.Printf("rank %d: join snapshot streamed in %v", rank, time.Since(start).Round(time.Millisecond))
	}

	var dt *panda.DistTree
	var total int64
	ccfg := server.ClusterConfig{
		Config:     c.serverConfig(),
		ServeAddrs: serveAddrs,
	}
	if snapIn != "" {
		start := time.Now()
		cs, err := panda.OpenClusterSnapshotReplicated(snapIn, rank)
		if err != nil {
			return fmt.Errorf("opening cluster snapshot: %w", err)
		}
		defer cs.Close()
		dt = cs.Tree
		total = dt.TotalPoints()
		ccfg.ReplicaSets = cs.ReplicaSets
		ccfg.Replicas = cs.Replicas
		ccfg.SnapshotDir = snapIn
		if c.threads > 0 {
			dt.SetServingThreads(c.threads)
		}
		log.Printf("rank %d/%d: warm start from %s (%d local of %d total points, %d replica shard(s), R=%d) in %v",
			rank, dt.Ranks(), snapIn, dt.LocalLen(), total, len(cs.Replicas), cs.Replication,
			time.Since(start).Round(time.Microsecond))
		if len(cs.Missing) > 0 {
			log.Printf("rank %d: held shard(s) %v not on disk yet; will stream them from live holders", rank, cs.Missing)
		}
		if c.snapOut != "" && c.snapOut != snapIn {
			// Re-persisting a restored tree is purely local (the stored
			// cluster total is reused; no mesh, no collective).
			start := time.Now()
			if err := dt.WriteSnapshotReplicated(c.snapOut, c.replication); err != nil {
				return fmt.Errorf("saving cluster snapshot: %w", err)
			}
			log.Printf("rank %d: saved snapshot into %s in %v", rank, c.snapOut, time.Since(start).Round(time.Millisecond))
		}
	} else {
		if len(mesh) == 0 || len(mesh) != len(serveAddrs) {
			return fmt.Errorf("-cluster needs -mesh and -serve with one address per rank (got %d mesh, %d serve)", len(mesh), len(serveAddrs))
		}
		coords, pdims, err := loadPoints(c)
		if err != nil {
			return err
		}
		nTotal := len(coords) / pdims
		total = int64(nTotal)

		// Deterministic striping: every process derives the same global view,
		// so rank r owns points {i : i mod P == r} with their global indices as
		// ids — answers match a single tree over the whole dataset.
		p := len(mesh)
		var shard []float32
		var ids []int64
		for i := rank; i < nTotal; i += p {
			shard = append(shard, coords[i*pdims:(i+1)*pdims]...)
			ids = append(ids, int64(i))
		}

		// The comm's per-rank thread count drives both simulated-time
		// charging and the real worker pool of the distributed build
		// (BuildDistributed takes it from the comm, not BuildOptions).
		buildThreads := c.threads
		if buildThreads <= 0 {
			buildThreads = runtime.GOMAXPROCS(0)
		}
		log.Printf("rank %d/%d: joining mesh at %s (%d build threads)", rank, p, mesh[rank], buildThreads)
		node, closeMesh, err := panda.JoinTCP(rank, mesh, buildThreads)
		if err != nil {
			return fmt.Errorf("joining mesh: %w", err)
		}
		defer closeMesh()

		start := time.Now()
		dt, err = node.Build(shard, pdims, ids, &panda.BuildOptions{BucketSize: c.bucket, Threads: buildThreads})
		if err != nil {
			return fmt.Errorf("distributed build: %w", err)
		}
		log.Printf("rank %d: built shard (%d local of %d total points) in %v",
			rank, dt.LocalLen(), nTotal, time.Since(start).Round(time.Millisecond))
		if c.threads > 0 {
			dt.SetServingThreads(c.threads)
		}
		if c.snapOut != "" {
			// Collective: every rank writes its shard, rank 0 the manifest.
			start := time.Now()
			if err := dt.WriteSnapshotReplicated(c.snapOut, c.replication); err != nil {
				return fmt.Errorf("saving cluster snapshot: %w", err)
			}
			log.Printf("rank %d: saved snapshot into %s in %v", rank, c.snapOut, time.Since(start).Round(time.Millisecond))
			// A cold-built rank has only its own shard in memory, but the
			// manifest now assigns it replica shards too: hand the placement
			// and the directory to the serving layer, whose repair loop
			// streams the missing copies from their owner ranks in the
			// background. Replicated serving converges without a restart.
			ccfg.SnapshotDir = c.snapOut
			ccfg.ReplicaSets = core.BuildReplicaSets(len(serveAddrs), c.replication)
		}
	}

	ccfg.TotalPoints = total
	srv, err := server.NewCluster(dt, ccfg)
	if err != nil {
		return err
	}
	stopMetrics, err := startMetrics(srv, c.metricsAddr, c.debugPprof)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", serveAddrs[rank])
	if err != nil {
		return err
	}
	log.Printf("rank %d: serving on %s (batch=%d max-inflight=%d)", rank, ln.Addr(), c.batch, c.maxInflight)
	return serveUntilSignal(srv, ln, c.grace, c.drain, stopMetrics)
}

// serveUntilSignal serves until SIGINT/SIGTERM, then drains gracefully and
// logs the lifetime serving counters. In cluster mode the drain is
// best-effort across ranks: queries already read off this rank's wire are
// answered, but a query needing a rank that has already exited fails with a
// KindError rather than blocking shutdown. With handoff (-drain) the rank
// first waits — up to the grace budget — until every shard it serves has
// another live holder, so its departure costs the cluster nothing.
func serveUntilSignal(srv *server.Server, ln net.Listener, grace time.Duration, drain bool, stopMetrics func(context.Context) error) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		if drain {
			deadline := time.Now().Add(grace)
			for {
				err := srv.Drainable()
				if err == nil {
					log.Printf("drain: every held shard has another live holder; leaving")
					break
				}
				if time.Now().After(deadline) {
					log.Printf("drain: %v — leaving anyway after %v", err, grace)
					break
				}
				log.Printf("drain: %v — waiting", err)
				time.Sleep(time.Second)
			}
		}
		log.Printf("received %v, draining in-flight queries (budget %v)", s, grace)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		st := srv.Stats()
		log.Printf("served %d queries in %d batches (mean batch %.1f)", st.Queries, st.Batches, st.MeanBatchSize)
		if st.PeerFailures+st.Failovers+st.Redials+st.ReplicationBytes+st.Shed > 0 {
			log.Printf("robustness: %d peer failures, %d failovers, %d redials, %d replication bytes served, %d requests shed",
				st.PeerFailures, st.Failovers, st.Redials, st.ReplicationBytes, st.Shed)
		}
		logTraces(srv)
		if err := stopMetrics(ctx); err != nil {
			log.Printf("metrics shutdown: %v", err)
		}
		log.Printf("drained; bye")
		return nil
	}
}

// logTraces writes the server's captured traces (sampled and slow queries)
// to the log on drain, one line each, most recent first — so a process
// killed during an investigation leaves its evidence in the log even if
// nobody scraped /debug/traces in time.
func logTraces(srv *server.Server) {
	traces := srv.Traces()
	const logCap = 32
	if len(traces) > logCap {
		log.Printf("traces: logging %d most recent of %d captured", logCap, len(traces))
		traces = traces[:logCap]
	}
	for _, tr := range traces {
		var stages strings.Builder
		for _, sp := range tr.Spans {
			if stages.Len() > 0 {
				stages.WriteByte(' ')
			}
			fmt.Fprintf(&stages, "%s@%d=%v", sp.Stage, sp.Rank, time.Duration(sp.Dur).Round(time.Microsecond))
		}
		flags := ""
		if tr.Slow {
			flags = " slow"
		}
		if tr.Err != "" {
			flags += " err=" + tr.Err
		}
		log.Printf("trace %016x %s nq=%d k=%d e2e=%v%s [%s]",
			tr.ID, tr.Kind, tr.NQ, tr.K, time.Duration(tr.E2ENS).Round(time.Microsecond), flags, stages.String())
	}
}
