// Content fingerprinting: a 64-bit hash over a tree's flat state that
// identifies the dataset independently of how the tree was materialized.
// A tree built in memory and the same tree reopened from its snapshot hash
// identically, because both reduce to the same canonical byte stream: the
// row-major little-endian points, ids and node records. The
// serving layer folds this hash into the dataset id it reports in the v3
// welcome, so clients can tell two same-shaped datasets apart.
package kdtree

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"io"
	"slices"
)

// Fingerprint hashes the tree content that determines query answers: dims,
// point count, coordinates, ids, and the node array. Coordinates hash as
// their logical row-major little-endian stream (point 0's coordinates,
// then point 1's, …) whether Coords is leaf-major or RowMajor, so a tree
// and its snapshot in every format version fingerprint identically. Split
// bounds and the bounding box are derived from those and excluded, so
// fingerprints stay comparable even if derived-array encodings evolve. Ids
// hash as their logical little-endian int64 stream whichever IDTable form
// holds them, so a narrow tree and a wide tree with the same ids
// fingerprint identically.
func (r Raw) Fingerprint() uint64 {
	h := fnv.New64a()
	writeFingerprintHeader(h, r.Dims, r.IDs.Len())
	var buf [4096]byte
	if r.RowMajor {
		writeFloats(h, r.Coords, &buf)
	} else {
		writeLeafMajor(h, r.Dims, r.Coords, decodeNodes(r.NodesLE), &buf)
	}
	writeIDs(h, r.IDs, &buf)
	h.Write(r.NodesLE)
	return h.Sum64()
}

// writeLeafMajor writes leaf-major coords to h in row-major point order,
// one leaf at a time in ascending start order. Leaves that do not tile
// the points from 0 (possible only in a corrupt file, which FromRaw
// rejects) end the stream early.
func writeLeafMajor(h io.Writer, dims int, coords []float32, nodes []node, buf *[4096]byte) {
	var leaves []node
	for _, n := range nodes {
		if n.dim == leafDim {
			leaves = append(leaves, n)
		}
	}
	slices.SortFunc(leaves, func(a, b node) int { return cmp.Compare(a.start, b.start) })
	var pts []float32
	next := 0
	for _, n := range leaves {
		lo, hi := int(n.start), int(n.end)
		if dims <= 0 || lo != next || hi < lo || hi > len(coords)/dims {
			return
		}
		m := hi - lo
		rows := coords[lo*dims : hi*dims]
		pts = slices.Grow(pts[:0], len(rows))[:len(rows)]
		for j := 0; j < dims; j++ {
			for i, v := range rows[j*m : (j+1)*m] {
				pts[i*dims+j] = v
			}
		}
		writeFloats(h, pts, buf)
		next = hi
	}
}

// writeFloats writes vals to h as little-endian float32s, staged through
// buf.
func writeFloats(h io.Writer, vals []float32, buf *[4096]byte) {
	for off := 0; off < len(vals); {
		n := 0
		for n+4 <= len(buf) && off < len(vals) {
			binary.LittleEndian.PutUint32(buf[n:], f32bits(vals[off]))
			n += 4
			off++
		}
		h.Write(buf[:n])
	}
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
