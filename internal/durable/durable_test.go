package durable

import (
	"errors"
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
		data, mapped, err := ReadOrMapFile(path, mmap, func(msg string) { t.Errorf("mmap=%v: unexpected warning %q", mmap, msg) })
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
	_, mapped, err := ReadOrMapFile(dir, true, func(msg string) { warned = append(warned, msg) })
	if err == nil || mapped || len(warned) != 1 ||
		!(strings.Contains(warned[0], "plain read") || strings.Contains(warned[0], "unsupported")) {
		t.Errorf("mapping a directory: mapped=%v, err=%v, warnings %q; want one fallback warning and the read's error", mapped, err, warned)
	}
}
