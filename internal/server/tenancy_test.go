package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"panda"
	"panda/internal/proto"
)

// buildTenantTree builds a deterministic tree distinct per seed (and
// optionally per dims), for multi-dataset tests.
func buildTenantTree(t testing.TB, n, dims int, seed int64) (*panda.Tree, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float32, n*dims)
	for i := range coords {
		coords[i] = rng.Float32()
	}
	tree, err := panda.Build(coords, dims, nil, &panda.BuildOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tree, coords
}

// startMulti serves a registry on loopback, mirroring startServer.
func startMulti(t testing.TB, reg *Registry, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewMulti(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveErr; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

// TestTenancyMixedWorkloadBitIdentical is the acceptance test for the
// tenant registry: one server hosting two datasets (of different
// dimensionality, so any cross-tenant leak is loud) answers a mixed
// concurrent two-tenant workload bit-identically to two dedicated
// single-dataset servers over the same trees.
func TestTenancyMixedWorkloadBitIdentical(t *testing.T) {
	const (
		nA, dimsA = 4000, 3
		nB, dimsB = 3000, 4
		workers   = 4 // per tenant
		iters     = 60
		k         = 5
	)
	treeA, coordsA := buildTenantTree(t, nA, dimsA, 101)
	treeB, coordsB := buildTenantTree(t, nB, dimsB, 202)

	reg := NewRegistry()
	if err := reg.Add("alpha", treeA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("beta", treeB); err != nil {
		t.Fatal(err)
	}
	multi, multiAddr := startMulti(t, reg, Config{MaxBatch: 8})
	_, soloAAddr := startServer(t, treeA, Config{MaxBatch: 8})

	soloB, err := NewMulti(func() *Registry {
		r := NewRegistry()
		if err := r.Add("beta", treeB); err != nil {
			t.Fatal(err)
		}
		return r
	}(), Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go soloB.Serve(lnB)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		soloB.Shutdown(ctx)
	})

	type tenantCase struct {
		name   string
		solo   string
		dims   int
		n      int
		coords []float32
	}
	cases := []tenantCase{
		{"alpha", soloAAddr, dimsA, nA, coordsA},
		{"beta", lnB.Addr().String(), dimsB, nB, coordsB},
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2*workers)
	for _, tc := range cases {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(tc tenantCase, w int) {
				defer wg.Done()
				mc, err := panda.Dialer{Dataset: tc.name}.Dial(multiAddr)
				if err != nil {
					errCh <- err
					return
				}
				defer mc.Close()
				// The dedicated server hosts one dataset; bind its default.
				sc, err := panda.Dial(tc.solo)
				if err != nil {
					errCh <- err
					return
				}
				defer sc.Close()
				if got, want := mc.Dims(), tc.dims; got != want {
					errCh <- errors.New("tenant " + tc.name + ": bound to " + strconv.Itoa(got) + " dims, want " + strconv.Itoa(want))
					return
				}
				rng := rand.New(rand.NewSource(int64(w)*31 + int64(len(tc.name))))
				q := make([]float32, 4*tc.dims)
				for it := 0; it < iters; it++ {
					src := rng.Intn(tc.n - 4)
					copy(q, tc.coords[src*tc.dims:(src+4)*tc.dims])
					if it%3 == 2 {
						got, err := mc.RadiusSearch(q[:tc.dims], 0.01)
						if err != nil {
							errCh <- err
							return
						}
						want, err := sc.RadiusSearch(q[:tc.dims], 0.01)
						if err != nil {
							errCh <- err
							return
						}
						if !sameNeighbors(got, want) {
							errCh <- errors.New("tenant " + tc.name + ": radius answers diverge between multi-tenant and dedicated server")
							return
						}
						continue
					}
					got, err := mc.KNNBatch(q, k)
					if err != nil {
						errCh <- err
						return
					}
					want, err := sc.KNNBatch(q, k)
					if err != nil {
						errCh <- err
						return
					}
					for qi := range got {
						if !sameNeighbors(got[qi], want[qi]) {
							errCh <- errors.New("tenant " + tc.name + ": KNN answers diverge between multi-tenant and dedicated server")
							return
						}
					}
				}
			}(tc, w)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The per-tenant counters saw exactly the combined workload.
	stats := multi.TenantStats()
	if len(stats) != 2 {
		t.Fatalf("TenantStats has %d tenants, want 2", len(stats))
	}
	var sum int64
	for name, ts := range stats {
		if ts.Queries == 0 {
			t.Errorf("tenant %s answered no queries", name)
		}
		sum += ts.Queries
	}
	if got := multi.Stats().Queries; sum != got {
		t.Fatalf("tenant query counters sum to %d, global is %d", sum, got)
	}
}

// TestLegacyHandshakeRejected: a pre-v3 (v1/v2) 8-byte hello binds no
// tenant. The server answers the v3 rejection — version 3 and zeroed
// dims/points in the first 20 bytes, so a legacy client reports "server
// speaks version 3" — and closes the connection; the rejection is what a v3
// client reads as ErrUnknownDataset.
func TestLegacyHandshakeRejected(t *testing.T) {
	treeA, _ := buildTenantTree(t, 2000, 3, 303)
	treeB, _ := buildTenantTree(t, 1500, 4, 404)
	reg := NewRegistry()
	if err := reg.Add("alpha", treeA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("beta", treeB); err != nil {
		t.Fatal(err)
	}
	_, addr := startMulti(t, reg, Config{})

	for _, v := range []uint32{1, 2} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		hello := binary.LittleEndian.AppendUint32(append([]byte{}, proto.Magic[:]...), v)
		if _, err := nc.Write(hello); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		welcome, err := io.ReadAll(nc) // everything up to the close
		nc.Close()
		if err != nil {
			t.Fatalf("v%d hello: connection not closed after the rejection: %v", v, err)
		}
		if len(welcome) < 20 || binary.LittleEndian.Uint32(welcome[4:8]) != proto.Version {
			t.Fatalf("v%d hello answered %x, want a version-%d welcome", v, welcome, proto.Version)
		}
		if dims, points := binary.LittleEndian.Uint32(welcome[8:12]), binary.LittleEndian.Uint64(welcome[12:20]); dims != 0 || points != 0 {
			t.Fatalf("v%d hello bound a tenant: dims=%d points=%d", v, dims, points)
		}
		if _, err := proto.ReadWelcome(bytes.NewReader(welcome)); !errors.Is(err, proto.ErrUnknownDataset) {
			t.Fatalf("v%d rejection reads as %v, want ErrUnknownDataset", v, err)
		}
	}
}

// TestUnknownDatasetRejected: naming a dataset the server does not serve
// fails the handshake with ErrUnknownDataset (wire level: a v3 welcome with
// zeroed dims/points/fingerprint echoing the requested name, then close).
func TestUnknownDatasetRejected(t *testing.T) {
	tree, _ := testTree(t, 500, 3)
	_, addr := startServer(t, tree, Config{})

	_, err := panda.Dialer{Dataset: "no-such-dataset"}.Dial(addr)
	if err == nil {
		t.Fatal("Dial bound to a dataset the server does not serve")
	}
	if !strings.Contains(err.Error(), "no-such-dataset") {
		t.Fatalf("error %v does not name the requested dataset", err)
	}

	// Wire level: the refusal echoes the name and closes.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(proto.AppendHello(nil, "no-such-dataset")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, werr := proto.ReadWelcome(nc)
	if !errors.Is(werr, proto.ErrUnknownDataset) {
		t.Fatalf("welcome error = %v, want ErrUnknownDataset", werr)
	}
	var one [1]byte
	if _, err := nc.Read(one[:]); err == nil {
		t.Fatal("connection stayed open after an unknown-dataset rejection")
	}
}

// TestRegistryValidation pins the registration rules: hostile names, nil
// trees, and duplicates are refused; the first Add becomes the default.
func TestRegistryValidation(t *testing.T) {
	tree, _ := testTree(t, 200, 3)
	reg := NewRegistry()
	for _, bad := range []string{"", "with space", "nul\x00", strings.Repeat("x", proto.MaxDatasetName+1)} {
		if err := reg.Add(bad, tree); err == nil {
			t.Errorf("Add(%q) accepted a hostile tenant name", bad)
		}
	}
	if err := reg.Add("a", nil); err == nil {
		t.Error("Add with a nil tree accepted")
	}
	if err := reg.Add("a", tree); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("a", tree); err == nil {
		t.Error("duplicate tenant name accepted")
	}
	if got := reg.defaultEngine().id.Name; got != "a" {
		t.Fatalf("default tenant is %q, want the first-added %q", got, "a")
	}
	if _, err := NewMulti(NewRegistry(), Config{}); err == nil {
		t.Error("NewMulti accepted an empty registry")
	}
}

// parseExposition is the same strict parse the loadgen scraper applies:
// every non-comment line must be "name[{labels}] value". It returns the
// samples and fails the test on any malformed line.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 1 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("malformed value in line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestPerTenantMetricsSumToGlobals drives a two-tenant server — including
// deterministic sheds: a batch whose query weight alone exceeds MaxInFlight
// is refused no matter what else is in flight, while a sequential client's
// single queries always fit — and checks every per-tenant counter sums
// exactly to its unlabeled global twin, with the exposition strictly
// parseable.
func TestPerTenantMetricsSumToGlobals(t *testing.T) {
	const maxInFlight = 64
	treeA, coordsA := buildTenantTree(t, 1500, 3, 505)
	treeB, coordsB := buildTenantTree(t, 1200, 4, 606)
	reg := NewRegistry()
	if err := reg.Add("alpha", treeA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("beta", treeB); err != nil {
		t.Fatal(err)
	}
	srv, addr := startMulti(t, reg, Config{MaxInFlight: maxInFlight})

	ca, err := panda.Dialer{Dataset: "alpha"}.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := panda.Dialer{Dataset: "beta"}.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	for i := 0; i < 30; i++ {
		if _, err := ca.KNN(coordsA[i*3:(i+1)*3], 4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := cb.KNN(coordsB[i*4:(i+1)*4], 4); err != nil {
			t.Fatal(err)
		}
	}
	// A batch of maxInFlight+1 queries weighs more than the whole admission
	// budget: deterministically shed.
	bigA := coordsA[:(maxInFlight+1)*3]
	bigB := coordsB[:(maxInFlight+1)*4]
	if _, err := ca.KNNBatch(bigA, 4); !panda.IsOverloaded(err) {
		t.Fatalf("alpha batch err = %v, want overload", err)
	}
	if _, err := cb.KNNBatch(bigB, 4); !panda.IsOverloaded(err) {
		t.Fatalf("beta batch err = %v, want overload", err)
	}
	if _, err := cb.KNNBatch(bigB, 4); !panda.IsOverloaded(err) {
		t.Fatalf("beta batch err = %v, want overload", err)
	}

	// The server observes each answered query just after writing it: wait
	// for all 50 before scraping.
	waitObserved(t, srv, 50)
	var buf bytes.Buffer
	srv.WriteMetrics(&buf)
	m := parseExposition(t, buf.String())

	sumOver := func(metric string) float64 {
		return m[metric+`{dataset="alpha"}`] + m[metric+`{dataset="beta"}`]
	}
	if got, want := m["panda_tenants"], 2.0; got != want {
		t.Errorf("panda_tenants = %v, want %v", got, want)
	}
	if got, want := sumOver("panda_tenant_queries_total"), m["panda_queries_total"]; got != want {
		t.Errorf("tenant queries sum to %v, global is %v", got, want)
	}
	if m[`panda_tenant_queries_total{dataset="alpha"}`] != 30 || m[`panda_tenant_queries_total{dataset="beta"}`] != 20 {
		t.Errorf("per-tenant query counts %v/%v, want 30/20",
			m[`panda_tenant_queries_total{dataset="alpha"}`], m[`panda_tenant_queries_total{dataset="beta"}`])
	}
	if got, want := sumOver("panda_tenant_shed_total"), m["panda_shed_total"]; got != want || want != 3 {
		t.Errorf("tenant sheds sum to %v, global is %v, want 3", got, want)
	}
	if m[`panda_tenant_shed_total{dataset="alpha"}`] != 1 || m[`panda_tenant_shed_total{dataset="beta"}`] != 2 {
		t.Errorf("per-tenant shed counts %v/%v, want 1/2",
			m[`panda_tenant_shed_total{dataset="alpha"}`], m[`panda_tenant_shed_total{dataset="beta"}`])
	}
	if got, want := sumOver("panda_tenant_request_latency_seconds_count"), m["panda_request_latency_seconds_count"]; got != want {
		t.Errorf("tenant latency counts sum to %v, global is %v", got, want)
	}
	// The cumulative +Inf bucket must equal _count per tenant and globally.
	for _, ten := range []string{"alpha", "beta"} {
		inf := m[`panda_tenant_request_latency_seconds_bucket{dataset="`+ten+`",le="+Inf"}`]
		count := m[`panda_tenant_request_latency_seconds_count{dataset="`+ten+`"}`]
		if inf != count {
			t.Errorf("tenant %s: +Inf bucket %v != count %v", ten, inf, count)
		}
	}
	if inf, count := m[`panda_request_latency_seconds_bucket{le="+Inf"}`], m["panda_request_latency_seconds_count"]; inf != count {
		t.Errorf("global +Inf bucket %v != count %v", inf, count)
	}
}
