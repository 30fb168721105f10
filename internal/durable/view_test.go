package durable

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// TestView: for every element type, an aligned buffer on a
// little-endian host is viewed in place and a buffer one byte past an
// aligned address is decoded into fresh memory. Both read the same
// bits, NaN payloads and the extremes of each type included.
func TestView(t *testing.T) {
	t.Run("uint16", func(t *testing.T) { checkView(t, []uint16{0, 1, 0x8001, math.MaxUint16}) })
	t.Run("uint32", func(t *testing.T) { checkView(t, []uint32{0, 1, 0x80000001, math.MaxUint32}) })
	t.Run("int32", func(t *testing.T) { checkView(t, []int32{0, -1, math.MinInt32, math.MaxInt32}) })
	t.Run("float32", func(t *testing.T) {
		checkView(t, []float32{0, -1.5, float32(math.Pi), float32(math.Inf(-1)), math.Float32frombits(0x7fc00001), math.SmallestNonzeroFloat32})
	})
	t.Run("float64", func(t *testing.T) {
		checkView(t, []float64{0, -1.5, math.Pi, math.Inf(1), math.Float64frombits(0x7ff8000000000001), math.SmallestNonzeroFloat64})
	})
}

func checkView[T uint16 | uint32 | int32 | float32 | float64](t *testing.T, want []T) {
	t.Helper()
	var enc bytes.Buffer
	if err := binary.Write(&enc, binary.LittleEndian, want); err != nil {
		t.Fatal(err)
	}
	size := enc.Len() / len(want)
	backing := make([]byte, enc.Len()+2*size)
	start := int(-uintptr(unsafe.Pointer(&backing[0])) % uintptr(size))
	for _, shift := range []int{0, 1} {
		b := backing[start+shift : start+shift+enc.Len()]
		copy(b, enc.Bytes())
		got := View[T](b, len(want))
		var dec bytes.Buffer
		if err := binary.Write(&dec, binary.LittleEndian, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec.Bytes(), enc.Bytes()) {
			t.Errorf("shift %d: viewed %v, want %v (bit for bit)", shift, got, want)
		}
		view := unsafe.Pointer(unsafe.SliceData(got)) == unsafe.Pointer(&b[0])
		if wantView := HostLittleEndian && shift == 0; view != wantView {
			t.Errorf("shift %d: viewed in place = %v, want %v", shift, view, wantView)
		}
	}
	if got := View[T](nil, 0); got == nil || len(got) != 0 {
		t.Errorf("View(nil, 0) = %#v, want an empty non-nil slice", got)
	}
}
