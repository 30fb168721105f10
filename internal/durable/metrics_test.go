package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestDurableMetricsAccrue(t *testing.T) {
	r := obs.NewRegistry()
	RegisterMetrics(r)

	dir := t.TempDir()
	filesBefore := publishesTotal.With("file").Value()
	dirsBefore := publishesTotal.With("dir").Value()
	fsyncFileBefore := fsyncSeconds.With("file").Count()
	fsyncDirBefore := fsyncSeconds.With("dir").Count()
	renamesBefore := renameSeconds.Count()

	if err := WriteFile(OS(), filepath.Join(dir, "a"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	staging := filepath.Join(dir, "bundle"+StagingSuffix)
	if err := os.MkdirAll(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := swapDir(OS(), staging, filepath.Join(dir, "bundle")); err != nil {
		t.Fatal(err)
	}

	if got := publishesTotal.With("file").Value() - filesBefore; got != 1 {
		t.Errorf("file publishes delta = %v, want 1", got)
	}
	if got := publishesTotal.With("dir").Value() - dirsBefore; got != 1 {
		t.Errorf("dir publishes delta = %v, want 1", got)
	}
	if got := fsyncSeconds.With("file").Count() - fsyncFileBefore; got != 1 {
		t.Errorf("file fsync observations delta = %d, want 1", got)
	}
	// WriteFile syncs the parent dir once, swapDir once more.
	if got := fsyncSeconds.With("dir").Count() - fsyncDirBefore; got != 2 {
		t.Errorf("dir fsync observations delta = %d, want 2", got)
	}
	// WriteFile renames once; swapDir renames staging→final (no
	// move-aside: final did not yet exist).
	if got := renameSeconds.Count() - renamesBefore; got != 2 {
		t.Errorf("rename observations delta = %d, want 2", got)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"leva_durable_fsync_seconds",
		"leva_durable_rename_seconds",
		"leva_durable_publishes_total",
		"leva_durable_errors_total",
	} {
		if !strings.Contains(sb.String(), "# TYPE "+name+" ") {
			t.Errorf("registry missing %s:\n%s", name, sb.String())
		}
	}
}

func TestDurableErrorCounter(t *testing.T) {
	before := errorsTotal.Value()
	// Writing into a directory that doesn't exist fails at create time.
	err := WriteFile(OS(), filepath.Join(t.TempDir(), "no", "such", "dir", "f"), nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if got := errorsTotal.Value() - before; got != 1 {
		t.Errorf("errors delta = %v, want 1", got)
	}
}

// TestPublishDirCountsEachFailureOnce: whichever filesystem operation
// of a publish over an existing directory fails, the failed PublishDir
// moves leva_durable_errors_total by exactly one — clearing and
// creating the staging directory included, and no failure counted by
// WriteFile or the swap counted again.
func TestPublishDirCountsEachFailureOnce(t *testing.T) {
	files := map[string][]byte{"a.bin": []byte("a"), "b.bin": []byte("b")}
	counter := NewFaultFS(OS())
	refDir := filepath.Join(t.TempDir(), "entry")
	for _, fsys := range []FS{OS(), counter} {
		if err := PublishDir(fsys, refDir, 1, files); err != nil {
			t.Fatal(err)
		}
	}
	counts := counter.Counts()
	for _, op := range Ops {
		for k := 1; k <= counts[op]; k++ {
			name := fmt.Sprintf("%s-%d", op, k)
			dir := filepath.Join(t.TempDir(), "entry")
			if err := PublishDir(OS(), dir, 1, files); err != nil {
				t.Fatal(err)
			}
			ffs := NewFaultFS(OS())
			ffs.FailAt(op, k)
			before := errorsTotal.Value()
			if err := PublishDir(ffs, dir, 1, files); err == nil {
				t.Fatalf("%s: publish reported success", name)
			}
			if got := errorsTotal.Value() - before; got != 1 {
				t.Errorf("%s: errors delta = %v, want 1", name, got)
			}
		}
	}
	// The staging directory's clear and create are the first remove
	// and the first mkdir of the publish.
	if counts[OpRemove] < 1 || counts[OpMkdir] < 1 {
		t.Errorf("publish made no remove or mkdir: %v", counts)
	}
}
