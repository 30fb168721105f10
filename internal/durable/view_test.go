package durable

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// TestViewF32: an aligned buffer on a little-endian host is viewed in
// place; a buffer one byte past an aligned address is decoded into
// fresh memory. Both read the same values, NaN payloads included.
func TestViewF32(t *testing.T) {
	want := []float32{0, -1.5, float32(math.Pi), float32(math.Inf(-1)), math.Float32frombits(0x7fc00001), math.SmallestNonzeroFloat32}
	backing := make([]byte, 4*len(want)+8)
	start := int(-uintptr(unsafe.Pointer(&backing[0])) % 4)
	for _, shift := range []int{0, 1} {
		b := backing[start+shift : start+shift+4*len(want)]
		for i, v := range want {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		got := ViewF32(b, len(want))
		if len(got) != len(want) {
			t.Fatalf("shift %d: %d values, want %d", shift, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Errorf("shift %d: value %d = %v, want %v", shift, i, got[i], want[i])
			}
		}
		view := unsafe.Pointer(unsafe.SliceData(got)) == unsafe.Pointer(&b[0])
		if wantView := HostLittleEndian && shift == 0; view != wantView {
			t.Errorf("shift %d: viewed in place = %v, want %v", shift, view, wantView)
		}
	}
	if got := ViewF32(nil, 0); got == nil || len(got) != 0 {
		t.Errorf("ViewF32(nil, 0) = %#v, want an empty non-nil slice", got)
	}
}
