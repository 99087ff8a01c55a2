package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint32(b, 42)
	b = AppendInt32(b, -7)
	b = AppendUint64(b, 1<<40)
	b = AppendInt64(b, -1<<40)
	b = AppendFloat32(b, 3.25)
	b = AppendFloat64(b, -0.5)
	d := NewDecoder(b)
	if d.Uint32() != 42 || d.Int32() != -7 || d.Uint64() != 1<<40 || d.Int64() != -1<<40 || d.Float32() != 3.25 || d.Float64() != -0.5 {
		t.Fatal("scalar round trip failed")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err = %v, remaining = %d", d.Err(), d.Remaining())
	}
}

func TestSliceRoundTrip(t *testing.T) {
	f32 := []float32{1.5, -2.25, float32(math.Inf(1)), 0}
	i64 := []int64{-1, 0, 1 << 50}
	i32 := []int32{7, -9}
	var b []byte
	b = AppendFloat32s(b, f32)
	b = AppendInt64s(b, i64)
	b = AppendInt32s(b, i32)
	d := NewDecoder(b)
	gf := d.Float32sInto(nil, 0)
	g64 := d.Int64sInto(nil, 0)
	g32 := d.Int32sInto(nil, 0)
	if d.Err() != nil || len(gf) != len(f32) || len(g64) != len(i64) || len(g32) != len(i32) {
		t.Fatalf("err = %v, lengths %d/%d/%d", d.Err(), len(gf), len(g64), len(g32))
	}
	for i, v := range f32 {
		if gf[i] != v {
			t.Fatalf("float32s[%d] = %v, want %v", i, gf[i], v)
		}
	}
	for i, v := range i64 {
		if g64[i] != v {
			t.Fatal("int64s mismatch")
		}
	}
	for i, v := range i32 {
		if g32[i] != v {
			t.Fatal("int32s mismatch")
		}
	}
}

func TestEmptySlices(t *testing.T) {
	var b []byte
	b = AppendFloat32s(b, nil)
	b = AppendInt64s(b, nil)
	d := NewDecoder(b)
	if len(d.Float32sInto(nil, 0)) != 0 || len(d.Int64sInto(nil, 0)) != 0 || d.Err() != nil {
		t.Fatal("empty slices must round-trip empty")
	}
}

func TestFloat32sPropertyRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		d := NewDecoder(AppendFloat32s(nil, vals))
		got := d.Float32sInto(nil, 0)
		if d.Err() != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// NaNs compare by bit pattern.
			if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNaNPreserved(t *testing.T) {
	nan := float32(math.NaN())
	d := NewDecoder(AppendFloat32(nil, nan))
	if got := d.Float32(); !math.IsNaN(float64(got)) {
		t.Fatal("NaN not preserved")
	}
}
