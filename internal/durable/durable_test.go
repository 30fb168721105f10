package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// stage writes a complete directory with a manifest, the way a publish
// protocol would.
func stage(t *testing.T, fsys FS, dir string, files map[string]string) {
	t.Helper()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{FormatVersion: 1}
	for name, content := range files {
		if err := WriteFile(fsys, filepath.Join(dir, name), []byte(content)); err != nil {
			t.Fatal(err)
		}
		m.Add(name, []byte(content))
	}
	if err := WriteManifest(fsys, dir, m); err != nil {
		t.Fatal(err)
	}
}

func TestSwapDirPublishesAndReplaces(t *testing.T) {
	root := t.TempDir()
	final := filepath.Join(root, "artifact")

	staging := final + StagingSuffix
	stage(t, OS(), staging, map[string]string{"a.txt": "old"})
	if err := SwapDir(OS(), staging, final); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(final); err != nil {
		t.Fatalf("published dir fails verification: %v", err)
	}
	if got, _ := os.ReadFile(filepath.Join(final, "a.txt")); string(got) != "old" {
		t.Fatalf("content %q", got)
	}

	// Republish over the existing version.
	stage(t, OS(), staging, map[string]string{"a.txt": "new"})
	if err := SwapDir(OS(), staging, final); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(final, "a.txt")); string(got) != "new" {
		t.Fatalf("content after replace %q, want new", got)
	}
	for _, leftover := range []string{staging, final + OldSuffix} {
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Errorf("leftover %s after clean swap", leftover)
		}
	}
}

func TestSwapDirCrashBetweenRenamesIsRecoverable(t *testing.T) {
	root := t.TempDir()
	final := filepath.Join(root, "artifact")
	staging := final + StagingSuffix

	stage(t, OS(), staging, map[string]string{"a.txt": "old"})
	if err := SwapDir(OS(), staging, final); err != nil {
		t.Fatal(err)
	}

	// Crash exactly between "move old aside" and "publish new": the
	// second rename of the swap dies.
	stage(t, OS(), staging, map[string]string{"a.txt": "new"})
	ffs := NewFaultFS(OS())
	ffs.CrashAt(OpRename, 2)
	if err := SwapDir(ffs, staging, final); err == nil {
		t.Fatal("crashed swap reported success")
	}
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatal("final dir exists mid-crash; expected the recovery window")
	}

	recovered, err := RecoverDir(OS(), final)
	if err != nil || !recovered {
		t.Fatalf("RecoverDir = %v, %v; want recovery", recovered, err)
	}
	if _, err := VerifyDir(final); err != nil {
		t.Fatalf("recovered dir fails verification: %v", err)
	}
	if got, _ := os.ReadFile(filepath.Join(final, "a.txt")); string(got) != "old" {
		t.Fatalf("recovered content %q, want the old version", got)
	}

	// Recovery is idempotent and a no-op on a healthy dir.
	if recovered, err := RecoverDir(OS(), final); err != nil || recovered {
		t.Fatalf("second RecoverDir = %v, %v; want no-op", recovered, err)
	}
}

func TestVerifyDirNamesTheBadFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifact")
	stage(t, OS(), dir, map[string]string{"payload.bin": "payload-bytes"})
	path := filepath.Join(dir, "payload.bin")

	t.Run("ok", func(t *testing.T) {
		if _, err := VerifyDir(dir); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		if err := os.WriteFile(path, []byte("payload-bytez"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := VerifyDir(dir)
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("corruption error does not name %s: %v", path, err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := os.WriteFile(path, []byte("pay"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := VerifyDir(dir)
		if err == nil || !strings.Contains(err.Error(), "truncated") || !strings.Contains(err.Error(), path) {
			t.Fatalf("truncation error does not name %s: %v", path, err)
		}
	})
	t.Run("missing", func(t *testing.T) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, err := VerifyDir(dir)
		if err == nil || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("missing-file error: %v", err)
		}
	})
	t.Run("no-manifest", func(t *testing.T) {
		if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
			t.Fatal(err)
		}
		_, err := VerifyDir(dir)
		if !errors.Is(err, ErrNoManifest) {
			t.Fatalf("err = %v, want ErrNoManifest", err)
		}
	})
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
