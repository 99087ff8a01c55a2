// Package snapshot persists built PANDA trees as versioned, checksummed,
// little-endian on-disk snapshots (magic "PNDS") that warm-start serving:
// instead of rebuilding a kd-tree from raw points on every boot, a process
// mmaps the snapshot and reconstructs the tree by slicing the mapping —
// zero-copy, no per-node parsing.
//
// # File layout
//
// Everything is little-endian. The file is a fixed header, a section table,
// 8-byte-aligned flat sections, and an 8-byte trailer:
//
//	header   [88]byte   magic "PNDS", version, counts, tree metadata, options
//	table    n×24 byte  section id + offset + length, one row per section
//	sections ...        flat arrays, each starting at an 8-byte-aligned offset
//	trailer  [8]byte    crc32c over file[0 : size-8], then magic "PNDE"
//
// Sections (lengths must match the header's counts exactly):
//
//	1 points       pointCount×dims float32 — leaf-major packed coordinates
//	2 ids          pointCount int64        — packed position -> caller id (wide)
//	7 ids32        int64 + pointCount×uint32 — base, then per-point offsets (narrow)
//	3 nodes        nodeCount×24 byte       — kdtree node records (see kdtree.Raw)
//	4 splitbounds  nodeCount×4 float32     — per-node pruning intervals
//	5 box          2×dims float32          — tight bounding box (min, max)
//	6 cluster      variable (optional)     — rank, ranks, total points, global tree
//
// A file holds exactly one id section, matching the tree's kdtree.IDTable
// form: ids32 (id = base + offset, 4 bytes per point) when the ids span
// fewer than 2^32 values, ids otherwise. The section table's job is
// alignment and optionality (the cluster section, the id form); it is not
// a compatibility mechanism — unknown section ids are an error, and format
// evolution bumps the version.
//
// The points section is leaf-major, as the tree holds it: each leaf of m
// points is dims rows of m floats, so the mmap path opens it zero-copy.
//
// # Versions
//
// Version 3 made the points section leaf-major; it is the only version
// written. Version 2 added the ids32 section. Version 1 and 2 files store
// their points row-major (point i at [i*dims, (i+1)*dims)) and still open
// on both the mmap and the copying path: kdtree.FromRaw transposes their
// points once into a heap copy, and a version 1 file opens as a tree with
// a wide id table. Readers of an older version cannot open newer files.
//
// # Zero-copy contract
//
// On little-endian hosts, Open mmaps the file and the returned kdtree.Raw
// slices alias the mapping directly — opening a multi-gigabyte tree costs
// validation, not parsing. Decode therefore validates *everything* before
// any slice is produced: header sanity caps, section table bounds and
// alignment, exact section lengths against the header counts, and the
// whole-file CRC. Tree-level invariants (node graph, leaf partition, finite
// coordinates) are validated one layer up by kdtree.FromRaw, which every
// caller must run before querying. Read is the safe copying fallback for
// platforms or callers without mmap; both paths produce bit-identical
// trees.
package snapshot

import (
	"fmt"
	"hash/crc32"
	"path/filepath"

	"panda/internal/core"
	"panda/internal/kdtree"
)

// Magic opens every snapshot file; TrailerMagic closes it.
var (
	Magic        = [4]byte{'P', 'N', 'D', 'S'}
	TrailerMagic = [4]byte{'P', 'N', 'D', 'E'}
)

// Version is the snapshot format version this package writes. It reads
// every version from 1 up to this one.
const Version = 3

// ShardFile names shard s's snapshot inside a cluster snapshot directory.
func ShardFile(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("rank-%d.pnds", s))
}

// ManifestFile names a cluster snapshot directory's manifest.
func ManifestFile(dir string) string { return filepath.Join(dir, "manifest.json") }

const (
	headerSize  = 88
	tableRow    = 24
	trailerSize = 8
	minFileSize = headerSize + trailerSize
)

// Section ids.
const (
	secPoints      = 1
	secIDs         = 2
	secNodes       = 3
	secSplitBounds = 4
	secBox         = 5
	secCluster     = 6
	secIDs32       = 7
)

// sectionName labels section ids for inspect output.
func sectionName(id uint32) string {
	switch id {
	case secPoints:
		return "points"
	case secIDs:
		return "ids"
	case secNodes:
		return "nodes"
	case secSplitBounds:
		return "splitbounds"
	case secBox:
		return "box"
	case secCluster:
		return "cluster"
	case secIDs32:
		return "ids32"
	default:
		return fmt.Sprintf("unknown(%d)", id)
	}
}

// Header flag bits.
const flagCluster = 1 << 0

// Retired build-option header fields. Bytes 66 (binary-search histogram
// flag), 68 (median sample count) and 80 (thread switch factor) recorded
// construction knobs the builder no longer has; it now always runs the
// values every tree carried, which the writer keeps emitting so files stay
// byte-identical. The reader range-checks the bytes and ignores them.
const (
	hdrBinaryHist   = 0
	hdrMedianSample = 1024
	hdrSwitchFactor = 10
)

// Decode sanity caps: every count is checked against these before any
// length arithmetic or allocation, so a hostile header cannot drive an
// overflow or an absurd make().
const (
	maxSections    = 32
	maxDims        = 1 << 16
	maxOptionValue = 1 << 20 // bucket size, median samples, threads, switch factor
	maxRanks       = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian gates the zero-copy reinterpretation of mapped bytes as
// typed slices; big-endian hosts always take the converting copy path.
// Shared with the kdtree codec so the two zero-copy layers cannot disagree.
var hostLittleEndian = kdtree.HostLittleEndian

// ClusterMeta is the optional cluster section: everything a rank needs to
// rejoin a sharded serving cluster without redoing the SPMD build — its
// rank, the cluster shape, and the replicated global partition tree.
type ClusterMeta struct {
	Rank        int
	Ranks       int
	TotalPoints int64 // cluster-wide point total (reported in client welcomes)
	GlobalRoot  int32
	GlobalNodes []core.GlobalNode
}

// Data is the decoded content of a snapshot: the local tree's flat state
// plus the optional cluster metadata.
type Data struct {
	Raw     kdtree.Raw
	Cluster *ClusterMeta // nil for single-tree snapshots
}

// Snapshot is an opened snapshot. When ZeroCopy is true the Raw slices
// alias an mmap'd file: they stay valid until Close, which releases the
// mapping — any tree built over them (kdtree.FromRaw adopts, not copies)
// must not be used afterwards.
type Snapshot struct {
	Data
	// ZeroCopy reports whether the large sections alias the underlying
	// file mapping (mmap path on little-endian hosts) rather than copies.
	ZeroCopy bool

	unmap func() error
}

// Close releases the file mapping (no-op for copied snapshots). The
// snapshot's slices — and any tree adopted from them — become invalid.
func (s *Snapshot) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	return u()
}

// SectionInfo describes one section-table row (inspect output).
type SectionInfo struct {
	ID     uint32
	Name   string
	Offset uint64
	Length uint64
}

// Info is the metadata view of a snapshot file, parsed without
// materializing the tree (panda snapshot inspect).
type Info struct {
	Version    uint32
	FileSize   uint64
	Dims       int
	Points     uint64
	Nodes      uint64
	Height     int
	MaxBucket  int
	BucketSize int
	CRCOK      bool
	// Fingerprint is the dataset content fingerprint the serving handshake
	// advertises (kdtree.FingerprintSections over the points/ids/nodes
	// section bytes). It equals Tree.Fingerprint() of the materialized tree,
	// so `panda snapshot inspect` shows the exact id clients will bind to.
	Fingerprint uint64
	Sections    []SectionInfo
	Cluster     *ClusterMeta // nil when the snapshot has no cluster section
	// ClusterErr reports a cluster section that is present but malformed
	// (inspect degrades gracefully instead of failing the whole parse).
	ClusterErr error
}
