//go:build !linux

package durable

// MapSupported reports whether MapFile can memory-map on this platform.
const MapSupported = false

// MapFile is unavailable off linux; callers check MapSupported (or the
// returned ErrMapUnsupported) and fall back to os.ReadFile.
func MapFile(path string) ([]byte, error) {
	return nil, ErrMapUnsupported
}

// Unmap is a no-op off linux: MapFile never produces a mapping here,
// so there is nothing to release.
func Unmap(data []byte) error {
	return nil
}

// dropPages is a no-op off linux: MapFile never maps here, so there
// are no mapped pages to drop.
func dropPages(chunk []byte) {}
