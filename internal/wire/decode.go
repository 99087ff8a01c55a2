package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

func leUint32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func leUint64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func f32frombits(v uint32) float32 { return math.Float32frombits(v) }
func f64frombits(v uint64) float64 { return math.Float64frombits(v) }

// ErrShort reports a buffer that ended before the value it claimed to hold.
var ErrShort = errors.New("wire: short buffer")

// ErrTooLarge reports a length prefix exceeding the decoder's sanity cap.
var ErrTooLarge = errors.New("wire: length prefix exceeds cap")

// Decoder consumes a wire buffer sequentially and is safe on untrusted
// input: instead of panicking, a malformed buffer makes every subsequent
// read return zero values and sets a sticky error. Slice reads verify the
// length prefix against both the remaining bytes and a caller cap before
// allocating, so a hostile 0xFFFFFFFF prefix costs nothing.
//
// Callers check Err after each message. For internal rank-to-rank messages
// a short buffer is a programming bug, so those callers abort on it rather
// than use the zero values.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a Decoder over b. The zero Decoder is an empty buffer.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first decoding error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes (0 once an error is set).
func (d *Decoder) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.b) - d.off
}

// fail records the first error and poisons all further reads.
func (d *Decoder) fail(err error, what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d of %d", err, what, d.off, len(d.b))
	}
}

// take returns the next n bytes, or nil after setting the sticky error.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail(ErrShort, what)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// Uint8 consumes one byte.
func (d *Decoder) Uint8() uint8 {
	if v := d.take(1, "uint8"); v != nil {
		return v[0]
	}
	return 0
}

// Uint32 consumes one little-endian uint32.
func (d *Decoder) Uint32() uint32 {
	if v := d.take(4, "uint32"); v != nil {
		return leUint32(v)
	}
	return 0
}

// Int32 consumes one little-endian int32.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 consumes one little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if v := d.take(8, "uint64"); v != nil {
		return leUint64(v)
	}
	return 0
}

// Int64 consumes one little-endian int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Float32 consumes one IEEE-754 float32.
func (d *Decoder) Float32() float32 { return f32frombits(d.Uint32()) }

// Float64 consumes one IEEE-754 float64.
func (d *Decoder) Float64() float64 { return f64frombits(d.Uint64()) }

// Len consumes a uint32 length prefix for elements of elemSize bytes and
// validates it: the declared payload must fit in the remaining buffer and
// the element count must not exceed maxElems (pass a protocol-level sanity
// cap; <=0 means "remaining bytes only"). Returns 0 on any violation with
// the sticky error set, before anything is allocated.
func (d *Decoder) Len(elemSize, maxElems int) int {
	n := int(d.Uint32())
	if d.err != nil {
		return 0
	}
	if maxElems > 0 && n > maxElems {
		d.fail(ErrTooLarge, fmt.Sprintf("%d elements > cap %d", n, maxElems))
		return 0
	}
	if n > (len(d.b)-d.off)/elemSize {
		d.fail(ErrShort, fmt.Sprintf("%d elements of %d bytes", n, elemSize))
		return 0
	}
	return n
}

// Float32sInto consumes a length-prefixed float32 slice, appending to dst
// (which may be nil); maxElems bounds the accepted length as in Len.
func (d *Decoder) Float32sInto(dst []float32, maxElems int) []float32 {
	n := d.Len(4, maxElems)
	raw := d.take(4*n, "float32 slice")
	if raw == nil {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, f32frombits(leUint32(raw[4*i:])))
	}
	return dst
}

// Int32sInto consumes a length-prefixed int32 slice, appending to dst.
func (d *Decoder) Int32sInto(dst []int32, maxElems int) []int32 {
	n := d.Len(4, maxElems)
	raw := d.take(4*n, "int32 slice")
	if raw == nil {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, int32(leUint32(raw[4*i:])))
	}
	return dst
}

// Int64sInto consumes a length-prefixed int64 slice, appending to dst.
func (d *Decoder) Int64sInto(dst []int64, maxElems int) []int64 {
	n := d.Len(8, maxElems)
	raw := d.take(8*n, "int64 slice")
	if raw == nil {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, int64(leUint64(raw[8*i:])))
	}
	return dst
}

// Bytes consumes exactly n raw bytes and returns a view into the buffer
// (valid until the buffer is reused).
func (d *Decoder) Bytes(n int) []byte { return d.take(n, "bytes") }

// Expect consumes one uint8 and fails unless it equals want.
func (d *Decoder) Expect(want uint8, what string) {
	if got := d.Uint8(); d.err == nil && got != want {
		d.fail(fmt.Errorf("wire: bad %s: got %d, want %d", what, got, want), what)
	}
}
