// Package durable provides crash-safe filesystem primitives for
// publishing artifacts that other processes depend on: atomic
// single-file writes (temp file + fsync + rename), atomic directory
// publication (stage a sibling directory, swap it in with one rename),
// and a MANIFEST.json integrity record (per-file SHA-256 and sizes) so
// torn writes and bit rot surface as named errors instead of silently
// corrupt data.
//
// All mutating operations go through the FS interface so tests can
// inject faults (error at the Nth write, short writes, torn renames,
// failed fsyncs — see FaultFS) and prove that every crash point leaves
// either the old complete artifact or the new complete artifact on
// disk, never a hybrid.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ErrMapUnsupported reports that MapFile is not implemented for this
// platform; callers fall back to a plain read (see MapSupported).
var ErrMapUnsupported = errors.New("durable: file mapping not supported on this platform")

// ReadOrMapFile returns path's bytes, memory-mapped when mmap is set
// and MapFile succeeds, read otherwise. A map that is unsupported or
// fails falls back to a plain read after telling warn (which may be
// nil) why. mapped reports whether the caller owns a mapping it must
// pass to Unmap.
func ReadOrMapFile(path string, mmap bool, warn func(string)) (data []byte, mapped bool, err error) {
	if mmap {
		if warn == nil {
			warn = func(string) {}
		}
		if !MapSupported {
			warn(fmt.Sprintf("durable: mmap requested but unsupported on this platform; reading %s instead", path))
		} else if data, err = MapFile(path); err != nil {
			warn(fmt.Sprintf("durable: mmap %s failed (%v); falling back to a plain read", path, err))
		} else {
			return data, true, nil
		}
	}
	data, err = os.ReadFile(path)
	return data, false, err
}

// File is the writable handle durable code uses: plain writes plus the
// two calls that decide durability, Sync and Close. Both return errors
// that MUST be checked — a full disk often only surfaces at fsync or
// close time.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the mutating filesystem operations of a publish, so a
// fault-injecting implementation can stand in for the real disk.
type FS interface {
	Create(name string) (File, error)
	Rename(oldpath, newpath string) error
	MkdirAll(path string, perm os.FileMode) error
	RemoveAll(path string) error
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making previously issued renames and
	// creates in it durable against power loss.
	SyncDir(path string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) Create(name string) (File, error)             { return os.Create(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile atomically replaces path with data: the bytes are written
// to a sibling temp file, fsynced, closed (both checked — a full disk
// often only reports there), renamed over path, and the parent
// directory is fsynced so the rename survives power loss. Readers of
// path see either the old content or the new content, never a prefix.
func WriteFile(fsys FS, path string, data []byte) error {
	err := writeFile(fsys, path, data)
	if err != nil {
		errorsTotal.Inc()
	} else {
		publishesTotal.With("file").Inc()
	}
	return err
}

func writeFile(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.RemoveAll(tmp)
		return fmt.Errorf("durable: write %s: %w", tmp, err)
	}
	if err := timedSync(f); err != nil {
		f.Close()
		fsys.RemoveAll(tmp)
		return fmt.Errorf("durable: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.RemoveAll(tmp)
		return fmt.Errorf("durable: close %s: %w", tmp, err)
	}
	if err := timedRename(fsys, tmp, path); err != nil {
		fsys.RemoveAll(tmp)
		return fmt.Errorf("durable: publish %s: %w", path, err)
	}
	if err := timedSyncDir(fsys, filepath.Dir(path)); err != nil {
		return fmt.Errorf("durable: fsync dir of %s: %w", path, err)
	}
	return nil
}

// Sibling names used by the directory-swap protocol. A directory dir
// being republished temporarily coexists with dir+StagingSuffix (the
// fully written candidate) and dir+OldSuffix (the previous version,
// moved aside for the one-rename publish).
const (
	StagingSuffix = ".staging"
	OldSuffix     = ".old"
)

// SwapDir publishes the fully written staging directory at final,
// crash-safely. If final already exists it is first moved aside to
// final+OldSuffix, then staging is renamed to final, the parent
// directory is fsynced, and the old version is removed. At every crash
// point either final holds a complete version (old or new), or final is
// absent and final+OldSuffix holds the complete old version, which
// RecoverDir restores.
func SwapDir(fsys FS, staging, final string) error {
	err := swapDir(fsys, staging, final)
	if err != nil {
		errorsTotal.Inc()
	} else {
		publishesTotal.With("dir").Inc()
	}
	return err
}

func swapDir(fsys FS, staging, final string) error {
	final = filepath.Clean(final)
	old := final + OldSuffix
	// A leftover .old from an earlier crashed publish would make the
	// move-aside fail; final exists, so the leftover is garbage.
	if err := fsys.RemoveAll(old); err != nil {
		return fmt.Errorf("durable: clear %s: %w", old, err)
	}
	if _, err := fsys.Stat(final); err == nil {
		if err := timedRename(fsys, final, old); err != nil {
			return fmt.Errorf("durable: move aside %s: %w", final, err)
		}
	}
	if err := timedRename(fsys, staging, final); err != nil {
		// Best-effort rollback; if the process dies before this runs,
		// RecoverDir performs the same restoration on next access.
		fsys.Rename(old, final)
		return fmt.Errorf("durable: publish %s: %w", final, err)
	}
	if err := timedSyncDir(fsys, filepath.Dir(final)); err != nil {
		return fmt.Errorf("durable: fsync dir of %s: %w", final, err)
	}
	if err := fsys.RemoveAll(old); err != nil {
		return fmt.Errorf("durable: remove %s: %w", old, err)
	}
	return nil
}

// RecoverDir repairs the one observable interruption of SwapDir: a
// crash between the move-aside and the publish rename leaves final
// absent and final+OldSuffix holding the complete previous version. It
// restores that version and reports whether it did. When final exists
// it does nothing — leftover .staging/.old siblings are cleaned up by
// the next publish, not by readers.
func RecoverDir(fsys FS, final string) (recovered bool, err error) {
	final = filepath.Clean(final)
	if _, err := fsys.Stat(final); err == nil {
		return false, nil
	}
	old := final + OldSuffix
	if _, err := fsys.Stat(old); err != nil {
		return false, nil
	}
	if err := timedRename(fsys, old, final); err != nil {
		errorsTotal.Inc()
		return false, fmt.Errorf("durable: recover %s from %s: %w", final, old, err)
	}
	if err := timedSyncDir(fsys, filepath.Dir(final)); err != nil {
		errorsTotal.Inc()
		return true, fmt.Errorf("durable: fsync dir of %s: %w", final, err)
	}
	publishesTotal.With("recover").Inc()
	return true, nil
}
