package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestName is the integrity record written alongside a published
// directory's payload files. Its presence marks the directory as
// complete: the publish protocol writes it last, so a directory that
// has a manifest has every payload file the manifest lists.
const ManifestName = "MANIFEST.json"

// ErrNoManifest reports a directory with no MANIFEST.json: one that was
// never a published artifact, or one written before integrity records
// existed. Bundle and index loads refuse it; the stage cache treats it
// as a miss.
var ErrNoManifest = errors.New("durable: no " + ManifestName)

// ManifestEntry records one payload file's identity.
type ManifestEntry struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// Manifest is the decoded MANIFEST.json: a format version plus one
// entry per payload file (the manifest itself is not listed).
type Manifest struct {
	FormatVersion int             `json:"formatVersion"`
	Files         []ManifestEntry `json:"files"`
}

// Add appends an entry computed from data under the given name.
func (m *Manifest) Add(name string, data []byte) {
	sum := sha256.Sum256(data)
	m.Files = append(m.Files, ManifestEntry{
		Name:   name,
		Size:   int64(len(data)),
		SHA256: hex.EncodeToString(sum[:]),
	})
}

// Entry returns the entry for name, or nil if the manifest has none.
func (m *Manifest) Entry(name string) *ManifestEntry {
	for i := range m.Files {
		if m.Files[i].Name == name {
			return &m.Files[i]
		}
	}
	return nil
}

// WriteManifest atomically writes m as dir/MANIFEST.json. PublishDir
// calls it after every payload file is durably in place.
func WriteManifest(fsys FS, dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("durable: marshal manifest: %w", err)
	}
	return WriteFile(fsys, filepath.Join(dir, ManifestName), append(data, '\n'))
}

// ReadManifest parses dir/MANIFEST.json, returning ErrNoManifest when
// the file does not exist.
func ReadManifest(dir string) (*Manifest, error) {
	m, _, err := readManifest(dir)
	return m, err
}

// readManifest is ReadManifest that also returns the manifest's raw
// bytes.
func readManifest(dir string) (*Manifest, []byte, error) {
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("%w in %s", ErrNoManifest, dir)
		}
		return nil, nil, fmt.Errorf("durable: read %s: %w", path, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("durable: parse %s: %w (manifest corrupt; the artifact cannot be trusted)", path, err)
	}
	return &m, data, nil
}

// DirStamp identifies what a sealed directory holds without reading
// its payload: the SHA-256 of its MANIFEST.json bytes plus the file
// metadata of every file the manifest lists. See Stamp.
type DirStamp struct {
	manifest [sha256.Size]byte
	files    []os.FileInfo
}

// Stamp returns dir's DirStamp: one manifest read and one stat per
// listed file. A directory without a manifest is ErrNoManifest
// (wrapped); a listed file that cannot be stat'ed is an error.
func Stamp(dir string) (DirStamp, error) {
	m, data, err := readManifest(dir)
	if err != nil {
		return DirStamp{}, err
	}
	s := DirStamp{manifest: sha256.Sum256(data)}
	for _, e := range m.Files {
		fi, err := os.Stat(filepath.Join(dir, e.Name))
		if err != nil {
			return DirStamp{}, fmt.Errorf("durable: stamp %s: %w", dir, err)
		}
		s.files = append(s.files, fi)
	}
	return s, nil
}

// Equal reports whether s and t stamp the same directory content: the
// same manifest bytes, and every listed file the same file (same
// inode, as os.SameFile sees it) with the same size and modification
// time. A republish (PublishDir writes new files), a rename over a
// listed file and a touch each change the stamp; an in-place rewrite
// shows only through the size and modification time it changes.
func (s DirStamp) Equal(t DirStamp) bool {
	if s.manifest != t.manifest || len(s.files) != len(t.files) {
		return false
	}
	for i, a := range s.files {
		b := t.files[i]
		if a.Size() != b.Size() || !a.ModTime().Equal(b.ModTime()) || !os.SameFile(a, b) {
			return false
		}
	}
	return true
}

// check verifies data, the bytes of the payload file at path, against
// e, the manifest's record for it: size first, then SHA-256. data is a
// MapFile mapping when mapped is set; only LoadVerified, which made the
// mapping, sets it.
func (e *ManifestEntry) check(path string, data []byte, mapped bool) error {
	if int64(len(data)) != e.Size {
		return fmt.Errorf("durable: %s is %d bytes but %s records %d (truncated or torn write)",
			path, len(data), ManifestName, e.Size)
	}
	if hex.EncodeToString(sum256(data, mapped)) != e.SHA256 {
		return fmt.Errorf("durable: %s fails its SHA-256 check against %s (file or manifest corrupt)",
			path, ManifestName)
	}
	return nil
}

// verifyChunk is how many bytes of a mapping sum256 hashes before it
// drops their pages. It matches the 2 MiB folios the page cache maps
// on linux; it is a multiple of every page size, so each chunk starts
// page-aligned in a page-aligned mapping.
const verifyChunk = 2 << 20

// sum256 returns data's SHA-256. Heap bytes are hashed in one call. A
// mapping (mapped set: a PROT_READ, MAP_PRIVATE view from MapFile,
// never heap memory) is hashed verifyChunk bytes at a time, and each
// chunk's page-table entries are dropped once it is hashed, so the
// check does not leave the whole file resident in this process.
func sum256(data []byte, mapped bool) []byte {
	if !mapped {
		sum := sha256.Sum256(data)
		return sum[:]
	}
	h := sha256.New()
	for off := 0; off < len(data); off += verifyChunk {
		chunk := data[off:min(off+verifyChunk, len(data))]
		h.Write(chunk)
		dropPages(chunk)
	}
	return h.Sum(nil)
}
