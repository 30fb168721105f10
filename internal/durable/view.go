package durable

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Typed views over little-endian file bytes. The binary bundle and the
// ANN index are both laid out so a reader can use its buffer in place:
// every array starts at an offset aligned for its element type. On a
// little-endian host with an aligned buffer these helpers return casts
// over the bytes — zero copy, and the result aliases b, so b must not
// be mutated afterward. Otherwise (a big-endian host, or a buffer that
// starts at an unaligned address) they fall back to an element-wise
// decode into fresh memory, with identical values.

// HostLittleEndian reports whether this machine stores integers the
// way the file formats do.
var HostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ViewU32 reinterprets the first 4n bytes of b as n uint32s.
func ViewU32(b []byte, n int) []uint32 {
	if n == 0 {
		return []uint32{}
	}
	if HostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// ViewI32 is ViewU32 for int32 payloads.
func ViewI32(b []byte, n int) []int32 {
	if n == 0 {
		return []int32{}
	}
	if HostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// ViewF64 reinterprets the first 8n bytes of b as n float64s.
func ViewF64(b []byte, n int) []float64 {
	if n == 0 {
		return []float64{}
	}
	if HostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
