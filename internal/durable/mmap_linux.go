//go:build linux

package durable

import (
	"fmt"
	"os"
	"syscall"
)

// MapSupported reports whether MapFile can memory-map on this platform.
const MapSupported = true

// MapFile memory-maps path read-only and returns the file's bytes as a
// view over the mapping (no read, no copy onto the heap). Pages fault
// in on first touch. LoadVerified hashes every byte of a sealed
// bundle or index through the mapping but drops each hashed chunk's
// page-table entries (dropPages), so after a load only the pages a
// reader touches are resident; the page cache keeps the file's data,
// so a later touch is a minor fault, not a disk read.
// The mapping is page-aligned, so any 8-aligned offset within the file
// is 8-aligned in memory, which is what the bundle arena's zero-copy
// float64 view relies on.
//
// The caller owns the mapping's lifetime: pass the returned slice to
// Unmap once every view into it is unreachable. Serving code tracks
// this with the bundle generation refcount — a retired generation
// unmaps when its last in-flight request finishes; touching a view
// after that is a SIGSEGV, which is why the refcount, not a
// finalizer, is the release point.
func MapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size == 0 {
		return []byte{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("durable: %s is %d bytes, too large to map", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("durable: mmap %s: %w", path, err)
	}
	return data, nil
}

// Unmap releases a mapping returned by MapFile. data must be the exact
// slice MapFile returned (not a subslice); every view into it is
// invalid afterward. The zero-length mapping MapFile returns for an
// empty file is a no-op, as is nil.
func Unmap(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if err := syscall.Munmap(data); err != nil {
		return fmt.Errorf("durable: munmap: %w", err)
	}
	return nil
}

// dropPages removes chunk's pages from this process's page tables
// (madvise MADV_DONTNEED). chunk must start page-aligned inside a
// PROT_READ, MAP_PRIVATE mapping from MapFile: such a mapping holds no
// private copies to lose, so a later touch faults the same file bytes
// back in from the page cache. On heap memory the call would zero the
// pages, which is why only sum256 calls it, and only on a mapping. The
// advice only saves memory, so its error is dropped: the pages then
// stay resident.
func dropPages(chunk []byte) {
	_ = syscall.Madvise(chunk, syscall.MADV_DONTNEED)
}
