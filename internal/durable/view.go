package durable

import (
	"encoding/binary"
	"unsafe"
)

// Typed views over little-endian file bytes. The binary bundle and the
// ANN index are both laid out so a reader can use its buffer in place:
// every array starts at an offset aligned for its element type. On a
// little-endian host with an aligned buffer View returns a cast over
// the bytes — zero copy, and the result aliases b, so b must not be
// mutated afterward. Otherwise (a big-endian host, or a buffer that
// starts at an unaligned address) it falls back to an element-wise
// decode into fresh memory, with identical values.

// HostLittleEndian reports whether this machine stores integers the
// way the file formats do.
var HostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// View reinterprets the first n·size(T) bytes of b as n values of T.
// Float payloads keep their exact bits, NaN payloads included. It
// panics, like any out-of-range slice, when b is shorter than that.
func View[T uint16 | uint32 | int32 | float32 | float64](b []byte, n int) []T {
	if n == 0 {
		return []T{}
	}
	size := int(unsafe.Sizeof(T(0)))
	_ = b[size*n-1]
	if HostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		// Decode the element's bits as an unsigned integer of its own
		// size and store them through a pointer of that size, which
		// is exact on either byte order.
		p := unsafe.Pointer(&out[i])
		switch size {
		case 2:
			*(*uint16)(p) = binary.LittleEndian.Uint16(b[2*i:])
		case 4:
			*(*uint32)(p) = binary.LittleEndian.Uint32(b[4*i:])
		default:
			*(*uint64)(p) = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	return out
}
