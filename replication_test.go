package panda

import (
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// buildMeshCluster builds a p-rank distributed tree over a loopback mesh
// with the points striped i mod p across ranks, and returns the rank trees
// plus the mesh closers.
func buildMeshCluster(t *testing.T, coords []float32, dims, p int) ([]*DistTree, func()) {
	t.Helper()
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
	n := len(coords) / dims
	dts := make([]*DistTree, p)
	closers := make([]func() error, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			node, closer, err := JoinTCPListener(r, lns[r], addrs, 1)
			if err != nil {
				errs[r] = err
				return
			}
			closers[r] = closer
			var local []float32
			var ids []int64
			for i := r; i < n; i += p {
				local = append(local, coords[i*dims:(i+1)*dims]...)
				ids = append(ids, int64(i))
			}
			dts[r], errs[r] = node.Build(local, dims, ids, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return dts, func() {
		for _, c := range closers {
			if c != nil {
				c()
			}
		}
	}
}

// writeClusterSnapshot persists every rank (collective call) into dir.
func writeClusterSnapshot(t *testing.T, dts []*DistTree, dir string, replication int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(dts))
	for r := range dts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = dts[r].WriteSnapshotReplicated(dir, replication)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d WriteSnapshotReplicated: %v", r, err)
		}
	}
}

// TestReplicatedSnapshotOpen checks the tentpole's storage half: the
// manifest records the R=2 placement, every rank opens its own shard plus
// its replica shard, and the replica tree answers bit-identically to the
// shard's own rank (it is the same snapshot bytes).
func TestReplicatedSnapshotOpen(t *testing.T) {
	const (
		dims = 3
		n    = 3000
		p    = 3
	)
	rng := rand.New(rand.NewSource(17))
	coords := make([]float32, n*dims)
	for i := range coords {
		coords[i] = rng.Float32() * 100
	}
	dts, closeMesh := buildMeshCluster(t, coords, dims, p)
	defer closeMesh()
	dir := t.TempDir()
	writeClusterSnapshot(t, dts, dir, 2)

	for r := 0; r < p; r++ {
		cs, err := OpenClusterSnapshotReplicated(dir, r)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if cs.Replication != 2 || len(cs.ReplicaSets) != p {
			t.Fatalf("rank %d: replication %d, %d replica sets", r, cs.Replication, len(cs.ReplicaSets))
		}
		if len(cs.Missing) != 0 {
			t.Fatalf("rank %d: missing shards %v in a complete directory", r, cs.Missing)
		}
		// Round-robin R=2: rank r holds its own shard plus its predecessor's.
		pred := (r - 1 + p) % p
		rt, ok := cs.Replicas[pred]
		if !ok || len(cs.Replicas) != 1 {
			t.Fatalf("rank %d: replicas %v, want exactly shard %d", r, cs.Replicas, pred)
		}
		// The replica answers bit-identically to the shard's own local tree.
		primary := dts[pred].LocalTree()
		q := make([]float32, dims)
		for i := 0; i < 100; i++ {
			for d := range q {
				q[d] = rng.Float32() * 100
			}
			want := primary.KNN(q, 5)
			got := rt.KNN(q, 5)
			if len(want) != len(got) {
				t.Fatalf("replica of shard %d: %d vs %d neighbors", pred, len(got), len(want))
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("replica of shard %d query %d: %+v != %+v", pred, i, got[j], want[j])
				}
			}
		}
		cs.Close()
	}

	// Deleting a replica file demotes it to Missing, not an error — that is
	// the state a re-replicating rank starts from.
	if err := os.Remove(filepath.Join(dir, "rank-0.pnds")); err != nil {
		t.Fatal(err)
	}
	cs, err := OpenClusterSnapshotReplicated(dir, 1)
	if err != nil {
		t.Fatalf("open with a missing replica file: %v", err)
	}
	defer cs.Close()
	if len(cs.Missing) != 1 || cs.Missing[0] != 0 {
		t.Fatalf("missing = %v, want [0]", cs.Missing)
	}
	// Rank 0 itself cannot open at all — its own shard is gone.
	if _, err := OpenClusterSnapshotReplicated(dir, 0); err == nil {
		t.Fatal("rank 0 opened without its own shard file")
	}
}

// TestClusterManifestCompat checks that a pre-replication manifest (no
// replication/replicas fields) reads as the identity placement.
func TestClusterManifestCompat(t *testing.T) {
	m, err := parseClusterManifest([]byte(`{
		"format": "panda-cluster-snapshot", "version": 1,
		"ranks": 3, "dims": 2, "totalPoints": 100
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Replication != 1 || len(m.Replicas) != 3 {
		t.Fatalf("replication %d, replicas %v", m.Replication, m.Replicas)
	}
	for s, holders := range m.Replicas {
		if len(holders) != 1 || holders[0] != s {
			t.Fatalf("shard %d holders %v, want identity", s, holders)
		}
	}
}

// TestClusterManifestHostile feeds the parser manifests with corrupt
// replica maps and out-of-range factors.
func TestClusterManifestHostile(t *testing.T) {
	base := func(extra string) []byte {
		return []byte(`{"format": "panda-cluster-snapshot", "version": 1,
			"ranks": 3, "dims": 2, "totalPoints": 100` + extra + `}`)
	}
	cases := map[string][]byte{
		"replication above ranks": base(`, "replication": 4`),
		"negative replication":    base(`, "replication": -1`),
		"short replica map":       base(`, "replicas": [[0],[1]]`),
		"empty holder list":       base(`, "replicas": [[0],[1],[]]`),
		"wrong primary":           base(`, "replicas": [[1,0],[1],[2]]`),
		"holder out of range":     base(`, "replicas": [[0,3],[1],[2]]`),
		"duplicate holder":        base(`, "replicas": [[0,0],[1],[2]]`),
		"zero ranks":              []byte(`{"format": "panda-cluster-snapshot", "version": 1, "ranks": 0, "dims": 2, "totalPoints": 1}`),
		"wrong format":            []byte(`{"format": "something-else", "version": 1, "ranks": 1, "dims": 1, "totalPoints": 1}`),
		"not json":                []byte(`{{{{`),
	}
	for name, data := range cases {
		if _, err := parseClusterManifest(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzClusterManifest throws arbitrary bytes at the manifest parser: no
// panic, and anything accepted must resolve to a valid replica placement.
func FuzzClusterManifest(f *testing.F) {
	f.Add([]byte(`{"format": "panda-cluster-snapshot", "version": 1, "ranks": 3, "dims": 2, "totalPoints": 100}`))
	f.Add([]byte(`{"format": "panda-cluster-snapshot", "version": 1, "ranks": 3, "dims": 2, "totalPoints": 100, "replication": 2}`))
	f.Add([]byte(`{"format": "panda-cluster-snapshot", "version": 1, "ranks": 2, "dims": 4, "totalPoints": 8, "replication": 2, "replicas": [[0,1],[1,0]]}`))
	f.Add([]byte(`{"format": "panda-cluster-snapshot", "version": 1, "ranks": 2, "dims": 4, "totalPoints": 8, "replicas": [[0],[1,0]]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[[[[`))
	valid, _ := json.Marshal(clusterManifest{Format: manifestFormat, Version: 1, Ranks: 5, Dims: 3, TotalPoints: 50, Replication: 3})
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseClusterManifest(data)
		if err != nil {
			return
		}
		if m.Ranks < 1 || m.Dims < 1 || m.TotalPoints < 0 {
			t.Fatalf("accepted manifest %+v", m)
		}
		if m.Replication < 1 || m.Replication > m.Ranks {
			t.Fatalf("accepted replication %d of %d ranks", m.Replication, m.Ranks)
		}
		if len(m.Replicas) != m.Ranks {
			t.Fatalf("accepted %d replica sets for %d ranks", len(m.Replicas), m.Ranks)
		}
		for s, holders := range m.Replicas {
			if len(holders) < 1 || holders[0] != s {
				t.Fatalf("accepted shard %d holders %v", s, holders)
			}
			seen := map[int]bool{}
			for _, h := range holders {
				if h < 0 || h >= m.Ranks || seen[h] {
					t.Fatalf("accepted shard %d holders %v", s, holders)
				}
				seen[h] = true
			}
		}
	})
}
