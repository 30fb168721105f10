// Package durable provides crash-safe filesystem primitives for
// publishing artifacts that other processes depend on. Every artifact
// — a stage-cache entry, a bundle, an ANN index — is a sealed
// directory: payload files plus a MANIFEST.json integrity record
// (format version, per-file size and SHA-256) written last. One
// protocol writes and reads them all:
//
//   - PublishDir stages the payload files and the manifest in a sibling
//     directory and swaps it in with one rename, so readers see the old
//     complete directory or the new one, never a hybrid. WriteFile is
//     the atomic single-file write (temp file + fsync + rename) it is
//     built from.
//   - ReadDir returns a sealed directory's manifest and every file it
//     lists, each read once and checked; LoadVerified is the same
//     check for one file, read or memory-mapped. Torn writes and bit
//     rot surface as errors naming the file, not as corrupt data.
//   - RecoverDir repairs the one state a crash mid-publish can leave
//     visible.
//
// All mutating operations go through the FS interface so tests can
// inject faults (error at the Nth write, short writes, torn renames,
// failed fsyncs — see FaultFS) and prove that every crash point leaves
// either the old complete artifact or the new complete artifact on
// disk, never a hybrid.
package durable

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ErrMapUnsupported reports that MapFile is not implemented for this
// platform; callers fall back to a plain read (see MapSupported).
var ErrMapUnsupported = errors.New("durable: file mapping not supported on this platform")

// LoadVerified returns the bytes of path, a payload file of a sealed
// directory, checked against m, that directory's manifest, by the
// file's base name. With mmap set the file is memory-mapped where the
// platform allows; a map that is unsupported or fails falls back to a
// plain read after telling warn (which may be nil) why. mapped reports
// whether the caller owns a mapping it must pass to Unmap.
//
// A file m does not list, a listed file that is missing or unreadable,
// and bytes that do not match m's record are each an error naming
// path; on any error nothing is mapped. A mapped check hashes every
// byte but leaves none of the file resident (see sum256): pages the
// caller later touches fault back in from the page cache.
func LoadVerified(path string, m *Manifest, mmap bool, warn func(string)) (data []byte, mapped bool, err error) {
	e := m.Entry(filepath.Base(path))
	if e == nil {
		return nil, false, fmt.Errorf("durable: %s is not listed in %s", path, ManifestName)
	}
	data, mapped, err = readOrMapFile(path, mmap, warn)
	if os.IsNotExist(err) {
		return nil, false, fmt.Errorf("durable: %s is listed in %s but missing", path, ManifestName)
	}
	if err != nil {
		return nil, false, err
	}
	if err = e.check(path, data, mapped); err != nil {
		if mapped {
			_ = Unmap(data) // the check already failed; that is the error to report
		}
		return nil, false, err
	}
	return data, mapped, nil
}

// ReadDir reads dir, a sealed directory: it returns dir's manifest and
// the bytes of every payload file the manifest lists, by name, each
// read once and checked as LoadVerified checks it. A directory without
// a manifest is ErrNoManifest (wrapped); any other failure is an error
// naming the file. ReadDir does not check the manifest's format
// version: that is the caller's decision.
func ReadDir(dir string) (*Manifest, map[string][]byte, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	files := make(map[string][]byte, len(m.Files))
	for _, e := range m.Files {
		data, _, err := LoadVerified(filepath.Join(dir, e.Name), m, false, nil)
		if err != nil {
			return nil, nil, err
		}
		files[e.Name] = data
	}
	return m, files, nil
}

// readOrMapFile returns path's bytes, memory-mapped by MapFile when
// mmap is set and mapping works, read otherwise (see LoadVerified).
func readOrMapFile(path string, mmap bool, warn func(string)) (data []byte, mapped bool, err error) {
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

// WriteFile atomically replaces path with data; it is WriteFileFunc
// with a writer that emits data in one call.
func WriteFile(fsys FS, path string, data []byte) error {
	return WriteFileFunc(fsys, path, func(w io.Writer) error { _, err := w.Write(data); return err })
}

// WriteFileFunc atomically replaces path with the bytes write streams
// to its writer: they go to a sibling temp file through a buffer,
// which is fsynced, closed (both checked — a full disk often only
// reports there), renamed over path, and the parent directory is
// fsynced so the rename survives power loss. Readers of path see
// either the old content or the new content, never a prefix; an error
// from write, or from any step, removes the temp file and leaves path
// as it was.
func WriteFileFunc(fsys FS, path string, write func(io.Writer) error) error {
	err := writeFile(fsys, path, write)
	if err != nil {
		errorsTotal.Inc()
	} else {
		publishesTotal.With("file").Inc()
	}
	return err
}

// writeBufferSize is the buffer WriteFileFunc streams through. Writes
// at least this large go straight to the file.
const writeBufferSize = 64 << 10

func writeFile(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", tmp, err)
	}
	bw := bufio.NewWriterSize(f, writeBufferSize)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
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

// PublishDir publishes files (name → bytes) as the sealed directory
// dir, crash-safely, with a manifest recording version. It first
// restores a publish interrupted between its two renames (RecoverDir),
// then writes every file into the cleared sibling dir+StagingSuffix in
// name order, each atomically, seals the stage with MANIFEST.json
// (written last, entries in the same order) and swaps it in for dir
// with one rename. Readers of dir see the old complete directory until
// the instant the new one replaces it. A failure leaves at worst an
// unsealed staging directory, which readers never look at and the next
// publish clears.
func PublishDir(fsys FS, dir string, version int, files map[string][]byte) error {
	dir = filepath.Clean(dir)
	if _, err := RecoverDir(fsys, dir); err != nil {
		return err
	}
	staging := dir + StagingSuffix
	if err := fsys.RemoveAll(staging); err != nil {
		errorsTotal.Inc()
		return fmt.Errorf("durable: clear %s: %w", staging, err)
	}
	if err := fsys.MkdirAll(staging, 0o755); err != nil {
		errorsTotal.Inc()
		return fmt.Errorf("durable: create %s: %w", staging, err)
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	m := &Manifest{FormatVersion: version}
	for _, name := range names {
		if err := WriteFile(fsys, filepath.Join(staging, name), files[name]); err != nil {
			return err
		}
		m.Add(name, files[name])
	}
	if err := WriteManifest(fsys, staging, m); err != nil {
		return err
	}
	return swapDir(fsys, staging, dir)
}

// swapDir publishes the fully written staging directory at final,
// crash-safely. If final already exists it is first moved aside to
// final+OldSuffix, then staging is renamed to final, the parent
// directory is fsynced, and the old version is removed. At every crash
// point either final holds a complete version (old or new), or final is
// absent and final+OldSuffix holds the complete old version, which
// RecoverDir restores.
func swapDir(fsys FS, staging, final string) (err error) {
	defer func() {
		if err != nil {
			errorsTotal.Inc()
		} else {
			publishesTotal.With("dir").Inc()
		}
	}()
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

// RecoverDir repairs the one observable interruption of a publish: a
// crash between the move-aside and the publish rename leaves final
// absent and final+OldSuffix holding the complete previous version. It
// restores that version and reports whether it did. When final exists
// it does nothing — leftover .staging/.old siblings are cleaned up by
// the next publish, not by readers. PublishDir runs it before every
// publish; the bundle and index loads run it before every load.
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
