package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"panda/internal/data"
	"panda/internal/simtime"
)

// globalFingerprint hashes the replicated global partition tree: every
// node's split plane, children and owner rank.
func globalFingerprint(g *GlobalTree) uint64 {
	h := fnv.New64a()
	var w [20]byte
	for _, n := range g.Nodes {
		binary.LittleEndian.PutUint32(w[0:4], uint32(n.Dim))
		binary.LittleEndian.PutUint32(w[4:8], math.Float32bits(n.Median))
		binary.LittleEndian.PutUint32(w[8:12], uint32(n.Left))
		binary.LittleEndian.PutUint32(w[12:16], uint32(n.Right))
		binary.LittleEndian.PutUint32(w[16:20], uint32(n.Rank))
		h.Write(w[:])
	}
	return h.Sum64()
}

// rankUnitsText renders one rank's per-phase, per-thread work units, one
// line per (phase, thread).
func rankUnitsText(rec *simtime.Recorder) string {
	var b strings.Builder
	for _, pm := range rec.Phases() {
		for t := range pm.Threads {
			fmt.Fprintf(&b, "%s/t%d", pm.Name, t)
			for k := 0; k < simtime.NumKinds; k++ {
				if u := pm.Threads[t].Units(simtime.Kind(k)); u != 0 {
					fmt.Fprintf(&b, " %s=%d", simtime.Kind(k), u)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestDistributedBuildPinned pins a 4-rank distributed build to fixed
// outputs: the global partition tree, each rank's local tree fingerprint
// and a digest of each rank's per-phase, per-thread simulated work units.
// The values were recorded from an earlier build; a refactor of global or
// local construction must leave every one of them in place.
func TestDistributedBuildPinned(t *testing.T) {
	trees, recs := buildOn(t, data.Cosmo(20000, 1).Points, 4, 2)
	if got, want := globalFingerprint(trees[0].Global), uint64(0xb64672ebc44cf1dc); got != want {
		t.Errorf("global tree fingerprint 0x%016x, pinned 0x%016x", got, want)
	}
	wantLocal := []uint64{0x2a3606ac0c5a8c7f, 0x8d184f5c39e2cfa6, 0x234b101023e3bda2, 0x4422dd1e134aeb16}
	wantUnits := []uint64{0x8ca015b3f449b146, 0x5d12566ef04e2f2f, 0xa1c895b1b1aefa55, 0x1f8cf76469bf7d95}
	for r, dt := range trees {
		if got := dt.Local.Raw().Fingerprint(); got != wantLocal[r] {
			t.Errorf("rank %d: local tree fingerprint 0x%016x, pinned 0x%016x", r, got, wantLocal[r])
		}
		units := rankUnitsText(recs[r])
		h := fnv.New64a()
		h.Write([]byte(units))
		if got := h.Sum64(); got != wantUnits[r] {
			t.Errorf("rank %d: work-unit digest 0x%016x, pinned 0x%016x; units now:\n%s", r, got, wantUnits[r], units)
		}
	}
}
