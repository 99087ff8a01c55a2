package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"unsafe"

	"panda/internal/core"
	"panda/internal/kdtree"
	"panda/internal/sample"
)

// header is the decoded fixed header.
type header struct {
	version      uint32
	sectionCount uint32
	fileSize     uint64
	dims         int
	flags        uint32
	pointCount   uint64
	nodeCount    uint64
	root         int32
	height       uint32
	maxBucket    uint32
	opts         kdtree.Options
}

// errCorrupt wraps every decode failure so callers can distinguish "not a
// valid snapshot" from I/O errors.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("snapshot: %s", fmt.Sprintf(format, args...))
}

// parseHeader validates the fixed header. Every count is capped before any
// later arithmetic uses it.
func parseHeader(data []byte) (header, error) {
	var h header
	if len(data) < minFileSize {
		return h, errCorrupt("file of %d bytes is below the %d-byte minimum", len(data), minFileSize)
	}
	if [4]byte(data[0:4]) != Magic {
		return h, errCorrupt("bad magic %q", data[0:4])
	}
	le := binary.LittleEndian
	h.version = le.Uint32(data[4:])
	if h.version < 1 || h.version > Version {
		return h, errCorrupt("unsupported version %d (this build reads 1 to %d)", h.version, Version)
	}
	if hs := le.Uint32(data[8:]); hs != headerSize {
		return h, errCorrupt("header size %d, want %d", hs, headerSize)
	}
	h.sectionCount = le.Uint32(data[12:])
	h.fileSize = le.Uint64(data[16:])
	dims := le.Uint32(data[24:])
	h.flags = le.Uint32(data[28:])
	h.pointCount = le.Uint64(data[32:])
	h.nodeCount = le.Uint64(data[40:])
	h.root = int32(le.Uint32(data[48:]))
	h.height = le.Uint32(data[52:])
	h.maxBucket = le.Uint32(data[56:])
	bucketSize := le.Uint32(data[60:])
	splitPolicy, splitValue, useBinaryHist := data[64], data[65], data[66]
	medianSamples := le.Uint32(data[68:])
	dimSampleCap := int32(le.Uint32(data[72:]))
	threads := le.Uint32(data[76:])
	switchFactor := le.Uint32(data[80:])

	if h.fileSize != uint64(len(data)) {
		return h, errCorrupt("header claims %d bytes, file has %d", h.fileSize, len(data))
	}
	if h.sectionCount == 0 || h.sectionCount > maxSections {
		return h, errCorrupt("section count %d out of range [1,%d]", h.sectionCount, maxSections)
	}
	if dims == 0 || dims > maxDims {
		return h, errCorrupt("dims %d out of range [1,%d]", dims, maxDims)
	}
	h.dims = int(dims)
	// The per-section exact-length checks bound pointCount and nodeCount by
	// the file size; these caps just keep the intermediate products far from
	// uint64 overflow.
	if h.pointCount > 1<<40 || h.nodeCount > 1<<40 {
		return h, errCorrupt("point/node count %d/%d beyond format bounds", h.pointCount, h.nodeCount)
	}
	if h.height > math.MaxInt32 || h.maxBucket > math.MaxInt32 {
		return h, errCorrupt("height/max-bucket %d/%d beyond int32", h.height, h.maxBucket)
	}
	if bucketSize > maxOptionValue || medianSamples > maxOptionValue ||
		threads > maxOptionValue || switchFactor > maxOptionValue {
		return h, errCorrupt("option value out of range (bucket %d, samples %d, threads %d, switch %d)",
			bucketSize, medianSamples, threads, switchFactor)
	}
	if dimSampleCap > maxOptionValue || dimSampleCap < -1 {
		return h, errCorrupt("dim sample cap %d out of range", dimSampleCap)
	}
	if splitPolicy > 1 || splitValue > 2 || useBinaryHist > 1 {
		return h, errCorrupt("unknown split policy %d/%d/%d", splitPolicy, splitValue, useBinaryHist)
	}
	h.opts = kdtree.Options{
		BucketSize:   int(bucketSize),
		SplitPolicy:  sample.SplitPolicy(splitPolicy),
		SplitValue:   kdtree.SplitValuePolicy(splitValue),
		DimSampleCap: int(dimSampleCap),
		Threads:      int(threads),
	}
	return h, nil
}

// parseSections validates the section table and returns each section's byte
// range, keyed by id. Offsets must be 8-byte aligned, strictly ascending,
// non-overlapping, and inside (table end, fileSize-trailer].
func parseSections(data []byte, h header) (map[uint32][]byte, []SectionInfo, error) {
	tableEnd := uint64(headerSize) + uint64(h.sectionCount)*tableRow
	limit := h.fileSize - trailerSize
	if tableEnd > limit {
		return nil, nil, errCorrupt("section table of %d rows overruns the file", h.sectionCount)
	}
	le := binary.LittleEndian
	secs := make(map[uint32][]byte, h.sectionCount)
	infos := make([]SectionInfo, 0, h.sectionCount)
	prevEnd := tableEnd
	for i := uint32(0); i < h.sectionCount; i++ {
		row := data[headerSize+i*tableRow:]
		id := le.Uint32(row)
		off := le.Uint64(row[8:])
		length := le.Uint64(row[16:])
		if _, dup := secs[id]; dup {
			return nil, nil, errCorrupt("duplicate section %d", id)
		}
		if off%8 != 0 {
			return nil, nil, errCorrupt("section %d at unaligned offset %d", id, off)
		}
		if off < prevEnd || off > limit || length > limit-off {
			return nil, nil, errCorrupt("section %d range [%d,%d+%d) invalid", id, off, off, length)
		}
		prevEnd = off + length
		secs[id] = data[off : off+length : off+length]
		infos = append(infos, SectionInfo{ID: id, Name: sectionName(id), Offset: off, Length: length})
	}
	return secs, infos, nil
}

// checkCRC verifies the trailer: crc32c over everything before it, then the
// closing magic.
func checkCRC(data []byte) error {
	t := data[len(data)-trailerSize:]
	if [4]byte(t[4:8]) != TrailerMagic {
		return errCorrupt("bad trailer magic %q", t[4:8])
	}
	want := binary.LittleEndian.Uint32(t)
	if got := crc32.Checksum(data[:len(data)-trailerSize], castagnoli); got != want {
		return errCorrupt("crc mismatch: file says %08x, content is %08x", want, got)
	}
	return nil
}

// section fetches a required section and checks its exact length.
func section(secs map[uint32][]byte, id uint32, wantLen uint64) ([]byte, error) {
	b, ok := secs[id]
	if !ok {
		return nil, errCorrupt("missing %s section", sectionName(id))
	}
	if uint64(len(b)) != wantLen {
		return nil, errCorrupt("%s section is %d bytes, want %d", sectionName(id), len(b), wantLen)
	}
	return b, nil
}

// idSection fetches the file's one id section and checks its exact length:
// ids (wide) or, from version 2 on, ids32 (narrow).
func idSection(secs map[uint32][]byte, h header) (b []byte, narrow bool, err error) {
	_, wide := secs[secIDs]
	_, narrow = secs[secIDs32]
	switch {
	case wide && narrow:
		return nil, false, errCorrupt("both ids and ids32 sections present")
	case narrow:
		b, err = section(secs, secIDs32, 8+h.pointCount*4)
	default:
		b, err = section(secs, secIDs, h.pointCount*8)
	}
	return b, narrow, err
}

// decodeIDs turns an id section into an id table, zero-copy on the same
// terms as asUint32s. The bool reports zero-copy.
func decodeIDs(b []byte, narrow, forceCopy bool) (kdtree.IDTable, bool) {
	if !narrow {
		wide, ok := asInt64s(b, forceCopy)
		return kdtree.IDTable{Wide: wide}, ok
	}
	off, ok := asUint32s(b[8:], forceCopy)
	return kdtree.IDTable{Base: int64(binary.LittleEndian.Uint64(b)), Offsets: off}, ok
}

// Decode validates data as a snapshot file and returns its content. With
// forceCopy false (the mmap path), the large sections are returned as
// zero-copy reinterpretations of data wherever the host allows it
// (little-endian, aligned base); otherwise — and always with forceCopy
// true — they are converted into freshly allocated slices and data may be
// discarded afterwards. Either way the returned Raw must still pass
// kdtree.FromRaw before any query runs; Decode guarantees only byte-level
// structure (bounds, lengths, CRC), not tree-level invariants.
func Decode(data []byte, forceCopy bool) (*Snapshot, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if err := checkCRC(data); err != nil {
		return nil, err
	}
	secs, _, err := parseSections(data, h)
	if err != nil {
		return nil, err
	}
	for id := range secs {
		switch id {
		case secPoints, secIDs, secNodes, secSplitBounds, secBox, secCluster:
		case secIDs32:
			if h.version == 1 {
				return nil, errCorrupt("ids32 section in a version 1 file")
			}
		default:
			return nil, errCorrupt("unknown section %d", id)
		}
	}

	d := uint64(h.dims)
	ptsB, err := section(secs, secPoints, h.pointCount*d*4)
	if err != nil {
		return nil, err
	}
	idsB, narrow, err := idSection(secs, h)
	if err != nil {
		return nil, err
	}
	nodesB, err := section(secs, secNodes, h.nodeCount*kdtree.NodeBytes)
	if err != nil {
		return nil, err
	}
	sbB, err := section(secs, secSplitBounds, h.nodeCount*4*4)
	if err != nil {
		return nil, err
	}
	boxB, err := section(secs, secBox, 2*d*4)
	if err != nil {
		return nil, err
	}

	s := &Snapshot{ZeroCopy: !forceCopy}
	var ok bool
	coords, ok := asFloat32s(ptsB, forceCopy)
	s.ZeroCopy = s.ZeroCopy && ok
	ids, ok := decodeIDs(idsB, narrow, forceCopy)
	s.ZeroCopy = s.ZeroCopy && ok
	sb, ok := asFloat32s(sbB, forceCopy)
	s.ZeroCopy = s.ZeroCopy && ok
	box, _ := asFloat32s(boxB, true) // tiny; always copy
	s.Raw = kdtree.Raw{
		Dims:        h.dims,
		Coords:      coords,
		RowMajor:    h.version < 3,
		IDs:         ids,
		NodesLE:     nodesB, // kdtree.FromRaw reinterprets or decodes as the host allows
		SplitBounds: sb,
		BoxMin:      box[:h.dims:h.dims],
		BoxMax:      box[h.dims:],
		Root:        h.root,
		Height:      int32(h.height),
		MaxBucket:   int32(h.maxBucket),
		Opts:        h.opts,
	}
	if forceCopy {
		s.Raw.NodesLE = append([]byte(nil), nodesB...)
	}

	clusterB, hasCluster := secs[secCluster]
	if hasCluster != (h.flags&flagCluster != 0) {
		return nil, errCorrupt("cluster flag %v but section present %v", h.flags&flagCluster != 0, hasCluster)
	}
	if hasCluster {
		meta, err := parseCluster(clusterB, h.dims)
		if err != nil {
			return nil, err
		}
		s.Cluster = meta
	}
	return s, nil
}

// parseCluster decodes the cluster section (always copying — it is a few
// hundred bytes for realistic rank counts).
func parseCluster(b []byte, dims int) (*ClusterMeta, error) {
	const fixed = 24
	if len(b) < fixed {
		return nil, errCorrupt("cluster section of %d bytes below the %d-byte minimum", len(b), fixed)
	}
	le := binary.LittleEndian
	m := &ClusterMeta{
		Rank:        int(le.Uint32(b[0:])),
		Ranks:       int(le.Uint32(b[4:])),
		TotalPoints: int64(le.Uint64(b[8:])),
		GlobalRoot:  int32(le.Uint32(b[16:])),
	}
	count := le.Uint32(b[20:])
	if m.Ranks < 1 || m.Ranks > maxRanks {
		return nil, errCorrupt("cluster ranks %d out of range [1,%d]", m.Ranks, maxRanks)
	}
	if m.Rank < 0 || m.Rank >= m.Ranks {
		return nil, errCorrupt("cluster rank %d out of range [0,%d)", m.Rank, m.Ranks)
	}
	if m.TotalPoints < 0 {
		return nil, errCorrupt("cluster total points %d negative", m.TotalPoints)
	}
	// A binary partition tree over R ranks has exactly 2R-1 nodes; allow
	// nothing larger.
	if count == 0 || count > uint32(2*m.Ranks) {
		return nil, errCorrupt("global tree of %d nodes for %d ranks", count, m.Ranks)
	}
	if uint64(len(b)) != fixed+uint64(count)*20 {
		return nil, errCorrupt("cluster section is %d bytes, want %d", len(b), fixed+uint64(count)*20)
	}
	m.GlobalNodes = make([]core.GlobalNode, count)
	for i := range m.GlobalNodes {
		r := b[fixed+i*20:]
		m.GlobalNodes[i] = core.GlobalNode{
			Dim:    int32(le.Uint32(r[0:])),
			Median: math.Float32frombits(le.Uint32(r[4:])),
			Left:   int32(le.Uint32(r[8:])),
			Right:  int32(le.Uint32(r[12:])),
			Rank:   int32(le.Uint32(r[16:])),
		}
	}
	if int(m.GlobalRoot) < 0 || int(m.GlobalRoot) >= len(m.GlobalNodes) {
		return nil, errCorrupt("global root %d out of range [0,%d)", m.GlobalRoot, len(m.GlobalNodes))
	}
	// Dims consistency is enforced against the header's dims by the caller
	// of core.NewGlobalTree; nothing dims-sized lives in this section.
	_ = dims
	return m, nil
}

// asUint32s reinterprets b as uint32s without copying when the host allows
// it (little-endian, 4-byte-aligned base) and copying is not forced;
// otherwise it converts into a fresh slice. The bool reports zero-copy.
func asUint32s(b []byte, forceCopy bool) ([]uint32, bool) {
	n := len(b) / 4
	if n == 0 {
		return nil, true
	}
	if !forceCopy && hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), true
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, false
}

// asFloat32s is asUint32s for float32 sections.
func asFloat32s(b []byte, forceCopy bool) ([]float32, bool) {
	u, ok := asUint32s(b, forceCopy)
	if len(u) == 0 {
		return nil, ok
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&u[0])), len(u)), ok
}

// asInt64s is asFloat32s for int64 sections (8-byte alignment).
func asInt64s(b []byte, forceCopy bool) ([]int64, bool) {
	n := len(b) / 8
	if n == 0 {
		return nil, true
	}
	if !forceCopy && hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), true
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, false
}

// Read loads a snapshot through the safe copying path: the whole file is
// read, validated, and converted into freshly allocated slices with no
// unsafe reinterpretation. Works everywhere mmap does not.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data, true)
}

// Open loads a snapshot zero-copy: the file is mmap'd and, after
// validation, the returned Raw slices alias the mapping (Close releases
// it). On platforms without mmap — or when mapping fails — it falls back to
// Read. Decode errors are returned as-is: a file that fails validation is
// corrupt on both paths.
func Open(path string) (*Snapshot, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return Read(path)
	}
	s, derr := Decode(data, false)
	if derr != nil {
		unmap()
		return nil, derr
	}
	s.unmap = unmap
	return s, nil
}

// ReadInfo parses a snapshot's header and section table (plus the CRC, to
// report integrity) without materializing the tree.
func ReadInfo(path string) (*Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	secs, infos, err := parseSections(data, h)
	if err != nil {
		return nil, err
	}
	info := &Info{
		Version:    h.version,
		FileSize:   h.fileSize,
		Dims:       h.dims,
		Points:     h.pointCount,
		Nodes:      h.nodeCount,
		Height:     int(h.height),
		MaxBucket:  int(h.maxBucket),
		BucketSize: h.opts.BucketSize,
		CRCOK:      checkCRC(data) == nil,
		Sections:   infos,
	}
	// The fingerprint hashes the sections exactly as the materialized
	// tree's Raw arrays would hash, so inspect reports the id a server
	// loading this file will advertise. Only computable when all three data
	// sections carry their declared sizes.
	ptsB, perr := section(secs, secPoints, h.pointCount*uint64(h.dims)*4)
	idsB, narrow, ierr := idSection(secs, h)
	nodesB, nerr := section(secs, secNodes, h.nodeCount*kdtree.NodeBytes)
	if perr == nil && ierr == nil && nerr == nil {
		coords, _ := asFloat32s(ptsB, false)
		ids, _ := decodeIDs(idsB, narrow, false)
		raw := kdtree.Raw{Dims: h.dims, Coords: coords, RowMajor: h.version < 3, IDs: ids, NodesLE: nodesB}
		info.Fingerprint = raw.Fingerprint()
	}
	for _, si := range infos {
		if si.ID == secCluster {
			// Degrade gracefully: inspect exists to describe damaged files,
			// so a malformed cluster section is reported alongside the rest
			// of the header rather than aborting the whole parse (matching
			// how a CRC mismatch is reported, not fatal).
			meta, err := parseCluster(data[si.Offset:si.Offset+si.Length], h.dims)
			if err != nil {
				info.ClusterErr = err
			} else {
				info.Cluster = meta
			}
		}
	}
	return info, nil
}
