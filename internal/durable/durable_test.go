package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWriteFileAtomicVisibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(OS(), path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("content %q, want v1", got)
	}
	// Replacement is atomic: a failure mid-replace leaves the old bytes.
	ffs := NewFaultFS(OS())
	ffs.FailAt(OpWrite, 1)
	if err := WriteFile(ffs, path, []byte("v2")); err == nil {
		t.Fatal("injected write fault did not surface")
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("failed write corrupted the target: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after failed write")
	}
	if err := WriteFile(OS(), path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2" {
		t.Fatalf("content %q, want v2", got)
	}
}

func TestWriteFileChecksSyncAndClose(t *testing.T) {
	for _, op := range []Op{OpSync, OpClose, OpCreate, OpRename} {
		t.Run(string(op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.txt")
			ffs := NewFaultFS(OS())
			ffs.FailAt(op, 1)
			err := WriteFile(ffs, path, []byte("data"))
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("fault on %s: err = %v, want ErrInjected", op, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("target exists after failed %s", op)
			}
		})
	}
}

func TestShortWriteLeavesNoVisibleFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	ffs := NewFaultFS(OS())
	ffs.CrashAt(OpWrite, 1)
	ffs.ShortWrites()
	if err := WriteFile(ffs, path, []byte("hello world")); err == nil {
		t.Fatal("torn write did not surface")
	}
	// The tear hit only the temp file; the destination never appeared.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("destination visible despite torn write")
	}
}

// readAll returns the payload files ReadDir reads from dir as strings,
// failing the test when dir is not a complete sealed directory.
func readAll(t *testing.T, dir string) map[string]string {
	t.Helper()
	_, files, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("%s fails verification: %v", dir, err)
	}
	out := make(map[string]string, len(files))
	for name, data := range files {
		out[name] = string(data)
	}
	return out
}

func TestSwapDirPublishesAndReplaces(t *testing.T) {
	final := filepath.Join(t.TempDir(), "artifact")
	if err := PublishDir(OS(), final, 1, map[string][]byte{"a.txt": []byte("old")}); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, final); got["a.txt"] != "old" {
		t.Fatalf("content %q", got)
	}

	// Republish over the existing version.
	if err := PublishDir(OS(), final, 1, map[string][]byte{"a.txt": []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, final); got["a.txt"] != "new" {
		t.Fatalf("content after replace %q, want new", got)
	}
	for _, leftover := range []string{final + StagingSuffix, final + OldSuffix} {
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Errorf("leftover %s after clean swap", leftover)
		}
	}
}

func TestSwapDirCrashBetweenRenamesIsRecoverable(t *testing.T) {
	final := filepath.Join(t.TempDir(), "artifact")
	if err := PublishDir(OS(), final, 1, map[string][]byte{"a.txt": []byte("old")}); err != nil {
		t.Fatal(err)
	}

	// Crash exactly between "move old aside" and "publish new": renames
	// 1 and 2 publish a.txt and the manifest into the stage, 3 moves the
	// old version aside, and 4, the swap's second rename, dies.
	ffs := NewFaultFS(OS())
	ffs.CrashAt(OpRename, 4)
	if err := PublishDir(ffs, final, 1, map[string][]byte{"a.txt": []byte("new")}); err == nil {
		t.Fatal("crashed swap reported success")
	}
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatal("final dir exists mid-crash; expected the recovery window")
	}

	recovered, err := RecoverDir(OS(), final)
	if err != nil || !recovered {
		t.Fatalf("RecoverDir = %v, %v; want recovery", recovered, err)
	}
	if got := readAll(t, final); got["a.txt"] != "old" {
		t.Fatalf("recovered content %q, want the old version", got)
	}

	// Recovery is idempotent and a no-op on a healthy dir.
	if recovered, err := RecoverDir(OS(), final); err != nil || recovered {
		t.Fatalf("second RecoverDir = %v, %v; want no-op", recovered, err)
	}
}

// TestStampChangesWithContent: a directory nobody touches keeps its
// Stamp, and each way of replacing what it holds — a listed file
// flipped and renamed over, rewritten in place, touched, the manifest
// rewritten, or a PublishDir republish of the very same bytes —
// changes it. A directory without a manifest has no stamp.
func TestStampChangesWithContent(t *testing.T) {
	files := map[string][]byte{"a.bin": []byte("payload a"), "b.bin": []byte("payload b")}
	cases := []struct {
		name   string
		change func(t *testing.T, dir string)
	}{
		{"untouched", func(*testing.T, string) {}},
		{"flipped-and-renamed", func(t *testing.T, dir string) {
			flipped := append([]byte(nil), files["a.bin"]...)
			flipped[0] ^= 0xff
			tmp := filepath.Join(dir, "a.bin.flipped")
			if err := os.WriteFile(tmp, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(tmp, filepath.Join(dir, "a.bin")); err != nil {
				t.Fatal(err)
			}
		}},
		{"rewritten-in-place", func(t *testing.T, dir string) {
			// Same inode, new size. A same-size rewrite shows only
			// through the modification time (the touch case).
			if err := os.WriteFile(filepath.Join(dir, "b.bin"), []byte("payload b, rewritten"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"touched", func(t *testing.T, dir string) {
			later := time.Now().Add(time.Hour)
			if err := os.Chtimes(filepath.Join(dir, "b.bin"), later, later); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest-rewritten", func(t *testing.T, dir string) {
			path := filepath.Join(dir, ManifestName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"republished", func(t *testing.T, dir string) {
			if err := PublishDir(OS(), dir, 1, files); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "artifact")
			if err := PublishDir(OS(), dir, 1, files); err != nil {
				t.Fatal(err)
			}
			before, err := Stamp(dir)
			if err != nil {
				t.Fatal(err)
			}
			c.change(t, dir)
			after, err := Stamp(dir)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.name == "untouched"; after.Equal(before) != want || before.Equal(after) != want {
				t.Errorf("stamp equal after %s = %v, want %v", c.name, after.Equal(before), want)
			}
		})
	}
	if _, err := Stamp(t.TempDir()); !errors.Is(err, ErrNoManifest) {
		t.Errorf("Stamp of a dir without a manifest: %v, want ErrNoManifest", err)
	}
}

// TestVerifyDirNamesTheBadFile: ReadDir returns exactly the bytes that
// were published, and refuses a listed file that is corrupt, truncated
// or missing with an error naming it, a directory without a manifest
// with ErrNoManifest, and an unparseable manifest as corrupt.
func TestVerifyDirNamesTheBadFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifact")
	want := map[string][]byte{"payload.bin": []byte("payload-bytes"), "z.bin": []byte("zz")}
	if err := PublishDir(OS(), dir, 3, want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "payload.bin")

	t.Run("ok", func(t *testing.T) {
		m, files, err := ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if m.FormatVersion != 3 || len(m.Files) != len(want) || len(files) != len(want) {
			t.Fatalf("manifest %+v, %d files; want version 3 and %d files", m, len(files), len(want))
		}
		for name, data := range want {
			if !bytes.Equal(files[name], data) {
				t.Errorf("%s: read %q, wrote %q", name, files[name], data)
			}
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		if err := os.WriteFile(path, []byte("payload-bytez"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadDir(dir)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "SHA-256") {
			t.Fatalf("corruption error does not name %s: %v", path, err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := os.WriteFile(path, []byte("pay"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadDir(dir)
		if err == nil || !strings.Contains(err.Error(), "truncated") || !strings.Contains(err.Error(), path) {
			t.Fatalf("truncation error does not name %s: %v", path, err)
		}
	})
	t.Run("missing", func(t *testing.T) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadDir(dir)
		if err == nil || !strings.Contains(err.Error(), "missing") || !strings.Contains(err.Error(), path) {
			t.Fatalf("missing-file error does not name %s: %v", path, err)
		}
	})
	t.Run("no-manifest", func(t *testing.T) {
		if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadDir(dir)
		if !errors.Is(err, ErrNoManifest) {
			t.Fatalf("err = %v, want ErrNoManifest", err)
		}
	})
	t.Run("corrupt-manifest", func(t *testing.T) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"files": [`), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadDir(dir)
		if err == nil || errors.Is(err, ErrNoManifest) || !strings.Contains(err.Error(), "manifest corrupt") {
			t.Fatalf("err = %v, want a corrupt-manifest error", err)
		}
	})
}

// TestPublishDirCrashPointSweep: for every filesystem operation a
// publish of a two-file directory over an existing one performs, crash
// at exactly that point (torn, for a write, as well as clean), or fail
// it transiently, then "restart": RecoverDir and ReadDir must find the
// complete old directory or the complete new one, manifest version
// included, never a hybrid.
func TestPublishDirCrashPointSweep(t *testing.T) {
	oldFiles := map[string][]byte{"a.bin": []byte("old a"), "b.bin": []byte("old b")}
	newFiles := map[string][]byte{"a.bin": []byte("new a, longer"), "b.bin": []byte("new b, longer")}
	versionOf := func(files map[string][]byte) int {
		if bytes.Equal(files["a.bin"], oldFiles["a.bin"]) {
			return 1
		}
		return 2
	}
	same := func(got, want map[string][]byte) bool { return maps.EqualFunc(got, want, bytes.Equal) }
	publish := func(fsys FS, dir string, files map[string][]byte) error {
		return PublishDir(fsys, dir, versionOf(files), files)
	}

	counter := NewFaultFS(OS())
	refDir := filepath.Join(t.TempDir(), "entry")
	if err := publish(OS(), refDir, oldFiles); err != nil {
		t.Fatal(err)
	}
	if err := publish(counter, refDir, newFiles); err != nil {
		t.Fatal(err)
	}
	counts := counter.Counts()

	points := 0
	for _, mode := range []string{"crash", "crash-short", "transient"} {
		for _, op := range Ops {
			if mode == "crash-short" && op != OpWrite {
				continue
			}
			for k := 1; k <= counts[op]; k++ {
				name := fmt.Sprintf("%s/%s-%d", mode, op, k)
				dir := filepath.Join(t.TempDir(), "entry")
				if err := publish(OS(), dir, oldFiles); err != nil {
					t.Fatal(err)
				}
				ffs := NewFaultFS(OS())
				if mode == "transient" {
					ffs.FailAt(op, k)
				} else {
					ffs.CrashAt(op, k)
				}
				if mode == "crash-short" {
					ffs.ShortWrites()
				}
				if err := publish(ffs, dir, newFiles); err == nil {
					t.Fatalf("%s: publish reported success", name)
				}
				if !ffs.Fired() {
					t.Fatalf("%s: fault never fired; op count drifted from the reference publish", name)
				}
				if _, err := RecoverDir(OS(), dir); err != nil {
					t.Fatalf("%s: RecoverDir: %v", name, err)
				}
				m, got, err := ReadDir(dir)
				if err != nil {
					t.Fatalf("%s: directory unreadable after the fault: %v", name, err)
				}
				if !(same(got, oldFiles) && m.FormatVersion == 1) && !(same(got, newFiles) && m.FormatVersion == 2) {
					t.Fatalf("%s: left a hybrid: version %d, files %q", name, m.FormatVersion, got)
				}
				points++
			}
		}
	}
	// Per file: create, write, sync, close, rename and syncdir, three
	// files (two payloads and the manifest) in all.
	if points < 3*6 {
		t.Errorf("sweep covered only %d fault points: %v", points, counts)
	}
}

func TestFaultFSCrashModeFreezesTheDisk(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS())
	ffs.CrashAt(OpSync, 1)

	err := WriteFile(ffs, filepath.Join(dir, "a"), []byte("x"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	// Everything after the crash fails, including cleanup.
	if err := ffs.RemoveAll(filepath.Join(dir, "a.tmp")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash RemoveAll = %v, want ErrCrashed", err)
	}
	// So the torn temp file is still there, exactly as at crash time.
	if _, err := os.Stat(filepath.Join(dir, "a.tmp")); err != nil {
		t.Errorf("crash-point state was mutated: %v", err)
	}
}

func TestFaultFSCountsDriveSweeps(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS())
	if err := WriteFile(ffs, filepath.Join(dir, "a"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	counts := ffs.Counts()
	for _, op := range []Op{OpCreate, OpWrite, OpSync, OpClose, OpRename, OpSyncDir} {
		if counts[op] == 0 {
			t.Errorf("op %s not counted; a sweep would miss it", op)
		}
	}
	if ffs.Fired() {
		t.Error("pass-through FaultFS fired")
	}
}

// TestReadOrMapFile: a mapped read returns the file's bytes as a
// mapping the caller owns, a plain read returns them unmapped, and a
// map that fails warns and falls back to a read (here of a directory,
// which cannot be mapped or read, so the read's error comes back).
func TestReadOrMapFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "payload")
	if err := os.WriteFile(path, []byte("payload bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		data, mapped, err := readOrMapFile(path, mmap, func(msg string) { t.Errorf("mmap=%v: unexpected warning %q", mmap, msg) })
		if err != nil || string(data) != "payload bytes" || mapped != (mmap && MapSupported) {
			t.Errorf("mmap=%v: got %q, mapped=%v, err=%v", mmap, data, mapped, err)
		}
		if mapped {
			if err := Unmap(data); err != nil {
				t.Fatal(err)
			}
		}
	}
	var warned []string
	_, mapped, err := readOrMapFile(dir, true, func(msg string) { warned = append(warned, msg) })
	if err == nil || mapped || len(warned) != 1 ||
		!(strings.Contains(warned[0], "plain read") || strings.Contains(warned[0], "unsupported")) {
		t.Errorf("mapping a directory: mapped=%v, err=%v, warnings %q; want one fallback warning and the read's error", mapped, err, warned)
	}
}

// streamChunks writes content in chunks at least as large as the
// publish buffer, so each reaches the file as its own write and a
// write-fault sweep has several mid-stream crash points.
func streamChunks(content []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		for len(content) > 0 {
			n := min(len(content), writeBufferSize+1)
			if _, err := w.Write(content[:n]); err != nil {
				return err
			}
			content = content[n:]
		}
		return nil
	}
}

// TestWriteFileFuncCrashSweep: a failure or a crash at every operation
// of a streamed publish leaves path holding the complete old content or
// the complete new content, never a prefix; a failure that lets cleanup
// run also leaves no temp file.
func TestWriteFileFuncCrashSweep(t *testing.T) {
	oldData := []byte("old content")
	newData := bytes.Repeat([]byte("0123456789abcdef"), 3*writeBufferSize/16+5)

	probe := NewFaultFS(OS())
	if err := WriteFileFunc(probe, filepath.Join(t.TempDir(), "probe"), streamChunks(newData)); err != nil {
		t.Fatal(err)
	}
	counts := probe.Counts()
	if counts[OpWrite] < 3 {
		t.Fatalf("stream reached the file in %d writes, want >= 3", counts[OpWrite])
	}
	for _, op := range Ops {
		for n := 1; n <= counts[op]; n++ {
			for _, crash := range []bool{false, true} {
				name := fmt.Sprintf("%s#%d/crash=%v", op, n, crash)
				path := filepath.Join(t.TempDir(), "out")
				if err := WriteFile(OS(), path, oldData); err != nil {
					t.Fatal(err)
				}
				ffs := NewFaultFS(OS())
				if crash {
					ffs.CrashAt(op, n)
				} else {
					ffs.FailAt(op, n)
				}
				if op == OpWrite {
					ffs.ShortWrites()
				}
				err := WriteFileFunc(ffs, path, streamChunks(newData))
				got, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatalf("%s: %v", name, rerr)
				}
				if !bytes.Equal(got, oldData) && !bytes.Equal(got, newData) {
					t.Fatalf("%s: path holds %d bytes, neither the old (%d) nor the new (%d) content",
						name, len(got), len(oldData), len(newData))
				}
				if err == nil {
					t.Fatalf("%s: injected fault did not surface", name)
				}
				// A fault before the rename must leave the old content.
				if op != OpSyncDir && !bytes.Equal(got, oldData) {
					t.Errorf("%s: failed publish replaced the file", name)
				}
				if _, err := os.Stat(path + ".tmp"); !crash && !os.IsNotExist(err) {
					t.Errorf("%s: temp file left behind", name)
				}
			}
		}
	}
}

// TestWriteFileFuncWriterError: a writer that fails mid-stream leaves
// the old file intact, no temp file behind, and its error wrapped.
func TestWriteFileFuncWriterError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	if err := WriteFile(OS(), path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileFunc(OS(), path, func(w io.Writer) error {
		if _, err := w.Write(bytes.Repeat([]byte("x"), 3*writeBufferSize)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("failed stream corrupted the target: %d bytes", len(got))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after writer error")
	}
}

// TestWriteFileFuncCounters: WriteFileFunc moves the publishes and
// errors counters exactly as WriteFile does, on success and on failure.
func TestWriteFileFuncCounters(t *testing.T) {
	type delta struct{ publishes, errors float64 }
	measure := func(fn func(path string, fsys FS) error, fail bool) delta {
		pub, errs := publishesTotal.With("file").Value(), errorsTotal.Value()
		fsys := FS(OS())
		if fail {
			ffs := NewFaultFS(OS())
			ffs.FailAt(OpSync, 1)
			fsys = ffs
		}
		fn(filepath.Join(t.TempDir(), "out"), fsys)
		return delta{publishesTotal.With("file").Value() - pub, errorsTotal.Value() - errs}
	}
	plain := func(path string, fsys FS) error { return WriteFile(fsys, path, []byte("data")) }
	streamed := func(path string, fsys FS) error {
		return WriteFileFunc(fsys, path, func(w io.Writer) error { _, err := io.WriteString(w, "data"); return err })
	}
	for _, tc := range []struct {
		fail bool
		want delta
	}{{false, delta{1, 0}}, {true, delta{0, 1}}} {
		if got := measure(plain, tc.fail); got != tc.want {
			t.Errorf("fail=%v: WriteFile moved counters by %+v, want %+v", tc.fail, got, tc.want)
		}
		if got := measure(streamed, tc.fail); got != tc.want {
			t.Errorf("fail=%v: WriteFileFunc moved counters by %+v, want %+v", tc.fail, got, tc.want)
		}
	}
}
