package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzConsumeScalars feeds arbitrary bytes to the hardened Decoder's scalar
// reads: no input may panic, and after the first failure every read must
// return the zero value with the sticky error set.
func FuzzConsumeScalars(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	b := AppendUint32(nil, 7)
	b = AppendFloat64(b, 3.5)
	b = AppendInt64(b, -9)
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		d.Uint8()
		d.Uint32()
		d.Float64()
		d.Int64()
		d.Float32()
		d.Int32()
		if d.Err() != nil {
			if d.Remaining() != 0 {
				t.Fatalf("Remaining %d after error, want 0", d.Remaining())
			}
			if v := d.Uint64(); v != 0 {
				t.Fatalf("read %d after sticky error, want 0", v)
			}
		}
	})
}

// FuzzConsumeSlices feeds arbitrary bytes to the length-prefixed slice
// reads with a small sanity cap: hostile length prefixes must produce an
// error (never a panic and never an over-allocation past the cap).
func FuzzConsumeSlices(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFloat32s(nil, []float32{1, 2, 3}))
	f.Add(AppendInt64s(AppendInt32s(nil, []int32{-1}), []int64{1 << 40}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // 4G-element prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		const cap = 1 << 10
		d := NewDecoder(data)
		fs := d.Float32sInto(nil, cap)
		is := d.Int32sInto(nil, cap)
		ls := d.Int64sInto(nil, cap)
		if len(fs) > cap || len(is) > cap || len(ls) > cap {
			t.Fatalf("slice read exceeded cap: %d/%d/%d", len(fs), len(is), len(ls))
		}
		if d.Err() == nil && d.Remaining() == 0 {
			// Fully-consumed valid input must re-encode to the same bytes.
			out := AppendFloat32s(nil, fs)
			out = AppendInt32s(out, is)
			out = AppendInt64s(out, ls)
			if !bytes.Equal(out, data) {
				t.Fatalf("roundtrip mismatch:\n got %x\nwant %x", out, data)
			}
		}
	})
}

// refReader is the fuzz oracle: the obvious sequential little-endian
// reader, panicking on a short buffer.
type refReader struct {
	b   []byte
	off int
}

func (r *refReader) next(n int) []byte {
	if n > len(r.b)-r.off {
		panic("short buffer")
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *refReader) Uint32() uint32 { return binary.LittleEndian.Uint32(r.next(4)) }
func (r *refReader) Int64() int64   { return int64(binary.LittleEndian.Uint64(r.next(8))) }

func (r *refReader) Float32s() []float32 {
	raw := r.next(4 * int(r.Uint32()))
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

func (r *refReader) Int32s() []int32 {
	raw := r.next(4 * int(r.Uint32()))
	out := make([]int32, len(raw)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// FuzzConsumeMatchesReader cross-checks the Decoder against refReader: on
// any prefix both must agree on the values decoded, and the Decoder must
// error exactly when the reference reader would panic.
func FuzzConsumeMatchesReader(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	b := AppendUint32(nil, 5)
	b = AppendFloat32s(b, []float32{1.5, -2})
	f.Add(b, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, ops uint8) {
		d := NewDecoder(data)
		r := &refReader{b: data}
		for i := 0; i < int(ops%8)+1; i++ {
			var dv, rv any
			var panicked bool
			op := (int(ops) + i) % 4
			func() {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				switch op {
				case 0:
					rv = r.Uint32()
				case 1:
					rv = r.Int64()
				case 2:
					rv = r.Float32s()
				case 3:
					rv = r.Int32s()
				}
			}()
			switch op {
			case 0:
				dv = d.Uint32()
			case 1:
				dv = d.Int64()
			case 2:
				dv = []float32(d.Float32sInto(nil, 0))
			case 3:
				dv = []int32(d.Int32sInto(nil, 0))
			}
			if panicked {
				if d.Err() == nil {
					t.Fatalf("op %d: reference reader panicked but Decoder has no error", op)
				}
				return
			}
			if d.Err() != nil {
				t.Fatalf("op %d: Decoder error %v but the reference reader succeeded", op, d.Err())
			}
			switch want := rv.(type) {
			case uint32:
				if dv.(uint32) != want {
					t.Fatalf("op %d: %v != %v", op, dv, want)
				}
			case int64:
				if dv.(int64) != want {
					t.Fatalf("op %d: %v != %v", op, dv, want)
				}
			case []float32:
				got := dv.([]float32)
				if len(got) != len(want) {
					t.Fatalf("op %d: len %d != %d", op, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] && !(got[j] != got[j] && want[j] != want[j]) {
						t.Fatalf("op %d elem %d: %v != %v", op, j, got[j], want[j])
					}
				}
			case []int32:
				got := dv.([]int32)
				if len(got) != len(want) {
					t.Fatalf("op %d: len %d != %d", op, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("op %d elem %d: %v != %v", op, j, got[j], want[j])
					}
				}
			}
		}
	})
}
