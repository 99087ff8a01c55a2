// Package wire provides the tiny binary encoding layer used for messages
// between ranks: little-endian scalar and slice append/consume helpers.
// PANDA's messages are dense numeric payloads (point blocks, histogram
// counts, query batches), so a reflection-free encoder keeps (de)serializing
// off the critical path. Decoder is the one reader, for internal messages
// and untrusted input alike.
package wire

import (
	"encoding/binary"
	"math"
)

// AppendUint32 appends v little-endian.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendInt32 appends v little-endian.
func AppendInt32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

// AppendUint64 appends v little-endian.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendInt64 appends v little-endian.
func AppendInt64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendFloat32 appends v as IEEE-754 bits.
func AppendFloat32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// AppendFloat64 appends v as IEEE-754 bits.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloat32s appends a length-prefixed float32 slice.
func AppendFloat32s(b []byte, vals []float32) []byte {
	b = AppendUint32(b, uint32(len(vals)))
	for _, v := range vals {
		b = AppendFloat32(b, v)
	}
	return b
}

// AppendInt64s appends a length-prefixed int64 slice.
func AppendInt64s(b []byte, vals []int64) []byte {
	b = AppendUint32(b, uint32(len(vals)))
	for _, v := range vals {
		b = AppendInt64(b, v)
	}
	return b
}

// AppendInt32s appends a length-prefixed int32 slice.
func AppendInt32s(b []byte, vals []int32) []byte {
	b = AppendUint32(b, uint32(len(vals)))
	for _, v := range vals {
		b = AppendInt32(b, v)
	}
	return b
}
