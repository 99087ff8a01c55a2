package snapshot

// Section streaming: ship a whole snapshot file between ranks in bounded,
// individually-checksummed chunks. This is the transport half of
// re-replication and rank join — a surviving holder serves chunks of its
// rank-N.pnds with ChunkSource, and the fetching rank reassembles them with
// Assembler. Integrity is checked twice: each chunk carries its own crc32c
// (catches transport corruption at the chunk that caused it), and the
// assembled file still ends in the ordinary PNDS trailer CRC, which
// Assembler verifies before anything trusts the bytes.

import (
	"fmt"
	"hash/crc32"
	"os"
)

// maxStreamFile caps a streamed snapshot file (16 GiB): a sanity bound on
// the fileSize a remote peer claims, not a format limit.
const maxStreamFile = 16 << 30

// ChunkSource serves byte ranges of one snapshot file for streaming. It
// holds the file open so a concurrently re-written snapshot (atomic
// temp+rename) cannot tear a stream in half: every chunk comes from the
// same inode.
type ChunkSource struct {
	f    *os.File
	size int64
}

// OpenChunkSource opens path for streaming.
func OpenChunkSource(path string) (*ChunkSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > maxStreamFile {
		f.Close()
		return nil, fmt.Errorf("snapshot: %s is %d bytes, beyond the %d streaming cap", path, st.Size(), int64(maxStreamFile))
	}
	return &ChunkSource{f: f, size: st.Size()}, nil
}

// Size returns the file's total byte count.
func (s *ChunkSource) Size() int64 { return s.size }

// ReadChunk reads up to maxLen bytes at offset off into buf (reusing its
// capacity) and returns the chunk plus its crc32c. Reading at or past the
// end of the file is an error — the fetcher knows the size from the first
// chunk and must not ask again. Safe for concurrent use (positioned reads).
func (s *ChunkSource) ReadChunk(off uint64, maxLen int, buf []byte) (data []byte, crc uint32, err error) {
	if maxLen < 1 {
		return nil, 0, fmt.Errorf("snapshot: chunk length %d", maxLen)
	}
	if off >= uint64(s.size) {
		return nil, 0, fmt.Errorf("snapshot: chunk offset %d beyond %d-byte file", off, s.size)
	}
	n := int64(maxLen)
	if rest := s.size - int64(off); n > rest {
		n = rest
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := s.f.ReadAt(buf, int64(off)); err != nil {
		return nil, 0, fmt.Errorf("snapshot: reading chunk at %d: %w", off, err)
	}
	return buf, crc32.Checksum(buf, castagnoli), nil
}

// Close releases the file.
func (s *ChunkSource) Close() error { return s.f.Close() }

// Assembler reassembles a snapshot file from streamed chunks. Chunks must
// arrive in order (each at the current offset — the fetch loop is a simple
// walk, so out-of-order arrival means the peer is confused) and each must
// match its own crc32c. Once complete, Commit validates the whole file
// against the PNDS trailer CRC and writes it atomically.
type Assembler struct {
	buf  []byte
	next uint64
	size uint64
	have bool // size learned from the first chunk
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler { return &Assembler{} }

// Add appends one chunk: data claimed to start at offset off of a
// fileSize-byte file with checksum crc. The first chunk fixes the file
// size; later chunks must agree on it.
func (a *Assembler) Add(off, fileSize uint64, crc uint32, data []byte) error {
	if !a.have {
		if fileSize == 0 || fileSize > maxStreamFile {
			return fmt.Errorf("snapshot: streamed file claims %d bytes", fileSize)
		}
		a.size = fileSize
		a.have = true
		a.buf = make([]byte, 0, fileSize)
	}
	if fileSize != a.size {
		return fmt.Errorf("snapshot: chunk claims a %d-byte file, stream started at %d", fileSize, a.size)
	}
	if off != a.next {
		return fmt.Errorf("snapshot: chunk at offset %d, want %d (chunks must arrive in order)", off, a.next)
	}
	if len(data) == 0 || a.next+uint64(len(data)) > a.size {
		return fmt.Errorf("snapshot: %d-byte chunk at %d overruns %d-byte file", len(data), off, a.size)
	}
	if got := crc32.Checksum(data, castagnoli); got != crc {
		return fmt.Errorf("snapshot: chunk at %d corrupt in transit: crc %08x, content %08x", off, crc, got)
	}
	a.buf = append(a.buf, data...)
	a.next += uint64(len(data))
	return nil
}

// Next returns the offset the next chunk must start at.
func (a *Assembler) Next() uint64 { return a.next }

// Size returns the total file size (0 before the first chunk).
func (a *Assembler) Size() uint64 { return a.size }

// Complete reports whether every byte has arrived.
func (a *Assembler) Complete() bool { return a.have && a.next == a.size }

// Raw returns the assembled bytes of a complete stream without PNDS
// validation — for streamed files that are not snapshots (the cluster
// manifest). Each chunk's crc32c was still verified on arrival.
func (a *Assembler) Raw() ([]byte, error) {
	if !a.Complete() {
		return nil, fmt.Errorf("snapshot: stream incomplete: %d of %d bytes", a.next, a.size)
	}
	return a.buf, nil
}

// Commit validates the assembled file as a full PNDS snapshot — structure,
// section bounds, trailer CRC, tree arrays — and only then writes it to
// path atomically (temp + rename), so a crash or a corrupt stream can never
// leave a bad snapshot where a warm start would trust it. Returns the
// decoded snapshot metadata for the caller to cross-check (rank, dims).
// The decode copies, so the returned snapshot stays valid after Commit.
func (a *Assembler) Commit(path string) (*Snapshot, error) {
	if !a.Complete() {
		return nil, fmt.Errorf("snapshot: stream incomplete: %d of %d bytes", a.next, a.size)
	}
	snap, err := Decode(a.buf, true)
	if err != nil {
		return nil, fmt.Errorf("snapshot: streamed file invalid: %w", err)
	}
	tmp, err := os.CreateTemp(dirOf(path), ".pnds-stream-*")
	if err != nil {
		return nil, err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(a.buf); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}
	if err := tmp.Chmod(0o666); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return nil, err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return nil, err
	}
	return snap, nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1]
		}
	}
	return "."
}
