// Multi-dataset tenancy: the registry maps dataset names to engines — the
// trees a process holds for one dataset plus its per-tenant serving
// counters. It is the process's only name→tree table: a single-node tenant
// has one shard slot, and a cluster rank's default tenant has one slot per
// shard (its own tree, the replicas it holds, and the ones re-replication
// pulls in later). Each connection binds to exactly one engine at handshake
// (the v3 hello names it, an empty name gets the default), and everything
// downstream of the handshake — admission, dispatch grouping, metrics —
// carries the engine instead of assuming a process-global tree. The name
// table is assembled before the server starts and immutable afterwards, and
// slots are atomic pointers, so the hot path reads both without locks.
package server

import (
	"fmt"
	"sync/atomic"

	"panda"
	"panda/internal/proto"
)

// engine is one served dataset: the trees held for it and its serving
// counters. These are the only query, shed, slow and latency counters the
// server keeps; the global values (Stats, /metrics) are their sums over
// tenants.
type engine struct {
	id proto.DatasetID
	// shards holds one slot per shard of the dataset; a nil slot is a shard
	// this process does not hold. Slots are only ever filled, never cleared.
	shards []atomic.Pointer[panda.Tree]

	// queries counts answered queries (a batch of nq counts nq), shed
	// counts admission refusals, slow counts requests over the -slow-query
	// threshold, latency is the request latency histogram.
	queries atomic.Int64
	shed    atomic.Int64
	slow    atomic.Int64
	latency histogram
}

// Registry is an immutable-after-start set of named engines. Build one with
// NewRegistry + Add, then hand it to NewMulti. The first dataset added is
// the default tenant (bound by hellos with an empty dataset name).
type Registry struct {
	tenants map[string]*engine
	order   []string // registration order; order[0] is the default
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: map[string]*engine{}}
}

// Add registers tree under name. The name must satisfy the wire charset
// (proto.ValidateDatasetName) and be unused; the first Add defines the
// default tenant. The dataset id is derived here: dims and point count from
// the tree, content fingerprint from its flat state.
func (r *Registry) Add(name string, tree *panda.Tree) error {
	e, err := r.add(name, tree)
	if err != nil {
		return err
	}
	e.id.Fingerprint = tree.Fingerprint()
	return nil
}

// add registers tree under name as Add does, but leaves the dataset id's
// fingerprint zero for the caller to set: a cluster rank's default tenant
// reports the cluster-wide fingerprint, not its shard's content hash.
func (r *Registry) add(name string, tree *panda.Tree) (*engine, error) {
	if err := proto.ValidateDatasetName(name); err != nil {
		return nil, err
	}
	if tree == nil {
		return nil, fmt.Errorf("server: nil tree for dataset %q", name)
	}
	if _, dup := r.tenants[name]; dup {
		return nil, fmt.Errorf("server: dataset %q registered twice", name)
	}
	e := &engine{
		id: proto.DatasetID{
			Name:   name,
			Dims:   tree.Dims(),
			Points: int64(tree.Len()),
		},
		shards: make([]atomic.Pointer[panda.Tree], 1),
	}
	e.shards[0].Store(tree)
	r.tenants[name] = e
	r.order = append(r.order, name)
	return e, nil
}

// lookup resolves a hello's dataset selector: "" means the default tenant,
// anything else must be registered. Returns nil for an unknown name.
func (r *Registry) lookup(name string) *engine {
	if name == "" {
		return r.defaultEngine()
	}
	return r.tenants[name]
}

func (r *Registry) defaultEngine() *engine {
	if len(r.order) == 0 {
		return nil
	}
	return r.tenants[r.order[0]]
}

// TenantStats is the per-dataset slice of the serving counters.
type TenantStats struct {
	ID      proto.DatasetID
	Queries int64
	Shed    int64
}

// TenantStats returns the per-dataset counters keyed by dataset name. For
// every counter, the values sum exactly to the corresponding global Stats
// field (which is computed as that sum).
func (s *Server) TenantStats() map[string]TenantStats {
	out := make(map[string]TenantStats, len(s.reg.order))
	for _, name := range s.reg.order {
		e := s.reg.tenants[name]
		out[name] = TenantStats{ID: e.id, Queries: e.queries.Load(), Shed: e.shed.Load()}
	}
	return out
}
