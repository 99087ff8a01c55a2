// Content fingerprinting: a 64-bit hash over a tree's flat state that
// identifies the dataset independently of how the tree was materialized.
// A tree built in memory and the same tree reopened from its snapshot hash
// identically, because both reduce to the same canonical byte stream — the
// little-endian section encoding the snapshot format stores on disk. The
// serving layer folds this hash into the dataset id it reports in the v3
// welcome, so clients can tell two same-shaped datasets apart.
package kdtree

import (
	"encoding/binary"
	"hash/fnv"
	"io"
)

// Fingerprint hashes the tree content that determines query answers: dims,
// point count, packed coordinates, ids, and the node array. Split bounds and
// the bounding box are derived from those and excluded, so fingerprints stay
// comparable even if derived-array encodings evolve. Ids hash as their
// logical little-endian int64 stream whichever IDTable form holds them, so a
// narrow tree and a wide tree with the same ids fingerprint identically.
func (r Raw) Fingerprint() uint64 {
	h := fnv.New64a()
	writeFingerprintHeader(h, r.Dims, r.IDs.Len())
	var buf [4096]byte
	for off := 0; off < len(r.Coords); {
		n := 0
		for n+4 <= len(buf) && off < len(r.Coords) {
			binary.LittleEndian.PutUint32(buf[n:], f32bits(r.Coords[off]))
			n += 4
			off++
		}
		h.Write(buf[:n])
	}
	writeIDs(h, r.IDs, &buf)
	h.Write(r.NodesLE)
	return h.Sum64()
}

// FingerprintSections computes the same hash as Raw.Fingerprint from the
// already-little-endian points and nodes section bytes of a snapshot file
// and its decoded id column, letting an inspector report the dataset id
// without materializing the tree.
func FingerprintSections(dims int, points []byte, ids IDTable, nodes []byte) uint64 {
	h := fnv.New64a()
	writeFingerprintHeader(h, dims, ids.Len())
	h.Write(points)
	var buf [4096]byte
	writeIDs(h, ids, &buf)
	h.Write(nodes)
	return h.Sum64()
}

func writeFingerprintHeader(h io.Writer, dims, count int) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(dims))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(count))
	h.Write(hdr[:])
}

// writeIDs writes ids to h as little-endian int64s, staged through buf.
func writeIDs(h io.Writer, ids IDTable, buf *[4096]byte) {
	cnt := ids.Len()
	for off := 0; off < cnt; {
		n := 0
		for n+8 <= len(buf) && off < cnt {
			binary.LittleEndian.PutUint64(buf[n:], uint64(ids.At(off)))
			n += 8
			off++
		}
		h.Write(buf[:n])
	}
}
