package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"panda/internal/kdtree"
)

// layoutSection is one planned section: id, payload length, assigned offset.
type layoutSection struct {
	id  uint32
	len uint64
	off uint64
}

// planLayout assigns 8-byte-aligned offsets after the header and section
// table and returns the sections plus the total file size.
func planLayout(secs []layoutSection) ([]layoutSection, uint64) {
	cur := uint64(headerSize) + uint64(len(secs))*tableRow
	for i := range secs {
		cur = (cur + 7) &^ 7
		secs[i].off = cur
		cur += secs[i].len
	}
	return secs, cur + trailerSize
}

// WriteFile writes d to path as a snapshot file, atomically: the bytes go
// to a temp name in the same directory and are renamed over path only
// after a successful close. A crash mid-write leaves any previous snapshot
// at path untouched, and overwriting the very snapshot a process is
// serving from (e.g. `panda-serve -snapshot x -save-snapshot x`) never
// truncates the mapped file — the old inode stays alive under the mapping
// while the new one takes over the name.
func WriteFile(path string, d *Data) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		// Keep the temp file beside the destination: os.CreateTemp("")
		// would use the system temp dir, making the rename cross-device
		// (EXDEV) and non-atomic.
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// CreateTemp's 0600 would make root-built snapshots unreadable by an
	// unprivileged serving user; grant the usual umask-filtered mode the
	// manifest beside it gets.
	if err := f.Chmod(0o666); err != nil {
		return fail(err)
	}
	if err := write(f, d); err != nil {
		return fail(err)
	}
	// Flush to stable storage before publishing the name: without the
	// fsync, a crash after the rename could leave path pointing at a
	// truncated inode while the previous good snapshot is already gone.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself; best-effort (not all platforms support
	// fsync on directories).
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}

// write streams the snapshot: header, table, sections (with alignment
// padding), trailer. The CRC accumulates over everything before the
// trailer.
func write(f io.Writer, d *Data) error {
	raw := &d.Raw
	if raw.Dims <= 0 || raw.Dims > maxDims {
		return fmt.Errorf("snapshot: dims %d out of range", raw.Dims)
	}
	n := raw.IDs.Len()
	if raw.RowMajor {
		return fmt.Errorf("snapshot: row-major points; write the Raw of a tree opened with kdtree.FromRaw")
	}
	if len(raw.Coords) != n*raw.Dims {
		return fmt.Errorf("snapshot: %d coords for %d points of dim %d", len(raw.Coords), n, raw.Dims)
	}
	if len(raw.NodesLE)%kdtree.NodeBytes != 0 {
		return fmt.Errorf("snapshot: node bytes %d not a multiple of %d", len(raw.NodesLE), kdtree.NodeBytes)
	}
	nn := len(raw.NodesLE) / kdtree.NodeBytes
	if len(raw.SplitBounds) != nn*4 {
		return fmt.Errorf("snapshot: %d split bounds for %d nodes", len(raw.SplitBounds), nn)
	}
	opts := raw.Opts
	if opts.BucketSize < 0 || opts.BucketSize > maxOptionValue ||
		opts.Threads < 0 || opts.Threads > maxOptionValue ||
		opts.DimSampleCap < -1 || opts.DimSampleCap > maxOptionValue {
		return fmt.Errorf("snapshot: build options out of serializable range")
	}

	// The box section always carries 2×dims floats; an empty tree (whose
	// in-memory box is nil/inverted) serializes as zeros and is ignored on
	// load.
	box := make([]float32, 2*raw.Dims)
	copy(box, raw.BoxMin)
	copy(box[raw.Dims:], raw.BoxMax)

	var clusterB []byte
	flags := uint32(0)
	if d.Cluster != nil {
		var err error
		if clusterB, err = encodeCluster(d.Cluster); err != nil {
			return err
		}
		flags |= flagCluster
	}

	idSec := layoutSection{id: secIDs, len: uint64(n) * 8}
	if raw.IDs.Narrow() {
		idSec = layoutSection{id: secIDs32, len: 8 + uint64(n)*4}
	}
	secs := []layoutSection{
		{id: secPoints, len: uint64(len(raw.Coords)) * 4},
		idSec,
		{id: secNodes, len: uint64(len(raw.NodesLE))},
		{id: secSplitBounds, len: uint64(len(raw.SplitBounds)) * 4},
		{id: secBox, len: uint64(len(box)) * 4},
	}
	if clusterB != nil {
		secs = append(secs, layoutSection{id: secCluster, len: uint64(len(clusterB))})
	}
	secs, fileSize := planLayout(secs)

	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)
	le := binary.LittleEndian

	// Header.
	hdr := make([]byte, headerSize)
	copy(hdr, Magic[:])
	le.PutUint32(hdr[4:], Version)
	le.PutUint32(hdr[8:], headerSize)
	le.PutUint32(hdr[12:], uint32(len(secs)))
	le.PutUint64(hdr[16:], fileSize)
	le.PutUint32(hdr[24:], uint32(raw.Dims))
	le.PutUint32(hdr[28:], flags)
	le.PutUint64(hdr[32:], uint64(n))
	le.PutUint64(hdr[40:], uint64(nn))
	le.PutUint32(hdr[48:], uint32(raw.Root))
	le.PutUint32(hdr[52:], uint32(raw.Height))
	le.PutUint32(hdr[56:], uint32(raw.MaxBucket))
	le.PutUint32(hdr[60:], uint32(opts.BucketSize))
	hdr[64] = uint8(opts.SplitPolicy)
	hdr[65] = uint8(opts.SplitValue)
	hdr[66] = hdrBinaryHist
	le.PutUint32(hdr[68:], hdrMedianSample)
	le.PutUint32(hdr[72:], uint32(int32(opts.DimSampleCap)))
	le.PutUint32(hdr[76:], uint32(opts.Threads))
	le.PutUint32(hdr[80:], hdrSwitchFactor)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}

	// Section table.
	row := make([]byte, tableRow)
	for _, s := range secs {
		le.PutUint32(row[0:], s.id)
		le.PutUint32(row[4:], 0)
		le.PutUint64(row[8:], s.off)
		le.PutUint64(row[16:], s.len)
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}

	// Sections, padding up to each planned offset.
	written := uint64(headerSize) + uint64(len(secs))*tableRow
	var pad [8]byte
	for _, s := range secs {
		if p := s.off - written; p > 0 {
			if _, err := bw.Write(pad[:p]); err != nil {
				return err
			}
			written = s.off
		}
		var err error
		switch s.id {
		case secPoints:
			err = writeFloat32s(bw, raw.Coords)
		case secIDs:
			err = writeInt64s(bw, raw.IDs.Wide)
		case secIDs32:
			if err = writeInt64s(bw, []int64{raw.IDs.Base}); err == nil {
				err = writeUint32s(bw, raw.IDs.Offsets)
			}
		case secNodes:
			_, err = bw.Write(raw.NodesLE)
		case secSplitBounds:
			err = writeFloat32s(bw, raw.SplitBounds)
		case secBox:
			err = writeFloat32s(bw, box)
		case secCluster:
			_, err = bw.Write(clusterB)
		}
		if err != nil {
			return err
		}
		written += s.len
	}

	// Trailer: flush the payload through the CRC writer first, then append
	// the trailer to the file alone (it is not part of the checksum).
	if err := bw.Flush(); err != nil {
		return err
	}
	var tr [trailerSize]byte
	le.PutUint32(tr[:], crc.Sum32())
	copy(tr[4:], TrailerMagic[:])
	_, err := f.Write(tr[:])
	return err
}

// encodeCluster serializes the cluster section.
func encodeCluster(m *ClusterMeta) ([]byte, error) {
	if m.Ranks < 1 || m.Ranks > maxRanks {
		return nil, fmt.Errorf("snapshot: cluster ranks %d out of range [1,%d]", m.Ranks, maxRanks)
	}
	if m.Rank < 0 || m.Rank >= m.Ranks {
		return nil, fmt.Errorf("snapshot: cluster rank %d out of range [0,%d)", m.Rank, m.Ranks)
	}
	if m.TotalPoints < 0 {
		return nil, fmt.Errorf("snapshot: cluster total points %d negative", m.TotalPoints)
	}
	if len(m.GlobalNodes) == 0 || len(m.GlobalNodes) > 2*m.Ranks {
		return nil, fmt.Errorf("snapshot: global tree of %d nodes for %d ranks", len(m.GlobalNodes), m.Ranks)
	}
	le := binary.LittleEndian
	b := make([]byte, 24+len(m.GlobalNodes)*20)
	le.PutUint32(b[0:], uint32(m.Rank))
	le.PutUint32(b[4:], uint32(m.Ranks))
	le.PutUint64(b[8:], uint64(m.TotalPoints))
	le.PutUint32(b[16:], uint32(m.GlobalRoot))
	le.PutUint32(b[20:], uint32(len(m.GlobalNodes)))
	for i, gn := range m.GlobalNodes {
		r := b[24+i*20:]
		le.PutUint32(r[0:], uint32(gn.Dim))
		le.PutUint32(r[4:], math.Float32bits(gn.Median))
		le.PutUint32(r[8:], uint32(gn.Left))
		le.PutUint32(r[12:], uint32(gn.Right))
		le.PutUint32(r[16:], uint32(gn.Rank))
	}
	return b, nil
}

// writeFloat32s writes vals little-endian — a direct reinterpreted write on
// little-endian hosts, a chunked conversion elsewhere.
func writeFloat32s(w io.Writer, vals []float32) error {
	if len(vals) == 0 {
		return nil
	}
	return writeUint32s(w, unsafe.Slice((*uint32)(unsafe.Pointer(&vals[0])), len(vals)))
}

// writeUint32s is writeFloat32s for uint32 sections.
func writeUint32s(w io.Writer, vals []uint32) error {
	if len(vals) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*4))
		return err
	}
	buf := make([]byte, 4*4096)
	for off := 0; off < len(vals); off += 4096 {
		end := min(off+4096, len(vals))
		for i, v := range vals[off:end] {
			binary.LittleEndian.PutUint32(buf[i*4:], v)
		}
		if _, err := w.Write(buf[:(end-off)*4]); err != nil {
			return err
		}
	}
	return nil
}

// writeInt64s is writeFloat32s for int64 sections.
func writeInt64s(w io.Writer, vals []int64) error {
	if len(vals) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*8))
		return err
	}
	buf := make([]byte, 8*4096)
	for off := 0; off < len(vals); off += 4096 {
		end := min(off+4096, len(vals))
		for i, v := range vals[off:end] {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		if _, err := w.Write(buf[:(end-off)*8]); err != nil {
			return err
		}
	}
	return nil
}
