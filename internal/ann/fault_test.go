package ann

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
)

func faultManifestKey(t *testing.T, dir string) string {
	t.Helper()
	m, _, err := durable.ReadDir(dir)
	if err != nil {
		t.Fatalf("index at %s fails verification: %v", dir, err)
	}
	var b strings.Builder
	for _, e := range m.Files {
		fmt.Fprintf(&b, "%s:%s;", e.Name, e.SHA256)
	}
	return b.String()
}

// TestSaveIndexCrashPointSweep proves the index artifact inherits the
// bundle's crash-safety: for every filesystem operation a replacing
// Save performs, simulate a crash (or a transient error, or a torn
// write) at exactly that point, "restart", and require that Load finds
// exactly the old index or exactly the new one — never a hybrid.
func TestSaveIndexCrashPointSweep(t *testing.T) {
	oldIx := testIndex(t, 50, 6, 21)
	newIx := testIndex(t, 50, 6, 22)

	refDir := filepath.Join(t.TempDir(), "index")
	if err := oldIx.Save(refDir); err != nil {
		t.Fatal(err)
	}
	oldKey := faultManifestKey(t, refDir)
	counter := durable.NewFaultFS(durable.OS())
	if err := newIx.save(counter, refDir); err != nil {
		t.Fatal(err)
	}
	newKey := faultManifestKey(t, refDir)
	if oldKey == newKey {
		t.Fatal("fixture indexes are identical on disk; the sweep cannot distinguish old from new")
	}
	counts := counter.Counts()

	crashPoints := 0
	sweep := func(mode string, short bool, inject func(*durable.FaultFS, durable.Op, int)) {
		for _, op := range durable.Ops {
			if short && op != durable.OpWrite {
				continue
			}
			for k := 1; k <= counts[op]; k++ {
				name := fmt.Sprintf("%s/%s-%d", mode, op, k)
				if short {
					name += "-short"
				}
				t.Run(name, func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "index")
					if err := oldIx.Save(dir); err != nil {
						t.Fatal(err)
					}
					ffs := durable.NewFaultFS(durable.OS())
					inject(ffs, op, k)
					if short {
						ffs.ShortWrites()
					}
					if err := newIx.save(ffs, dir); err == nil {
						t.Fatalf("save with injected %s fault #%d reported success", op, k)
					}
					if !ffs.Fired() {
						t.Fatalf("fault %s #%d never fired; op count drifted from the reference save", op, k)
					}
					if _, err := Load(dir); err != nil {
						t.Fatalf("index unloadable after crash at %s #%d: %v", op, k, err)
					}
					got := faultManifestKey(t, dir)
					if got != oldKey && got != newKey {
						t.Fatalf("crash at %s #%d left a hybrid index on disk:\n got %s\n old %s\n new %s",
							op, k, got, oldKey, newKey)
					}
					crashPoints++
				})
			}
		}
	}

	sweep("crash", false, func(f *durable.FaultFS, op durable.Op, k int) { f.CrashAt(op, k) })
	sweep("crash", true, func(f *durable.FaultFS, op durable.Op, k int) { f.CrashAt(op, k) })
	sweep("transient", false, func(f *durable.FaultFS, op durable.Op, k int) { f.FailAt(op, k) })

	if crashPoints < 10 {
		t.Errorf("sweep covered only %d crash points; the op counts look implausibly low: %v", crashPoints, counts)
	}
}

// TestLoadRestoresInterruptedSave: a save that crashes between the
// swap's two renames leaves no index at dir and the old one at
// dir.old. LoadOpts restores the old index, loads it, and reports the
// restore through Warn.
func TestLoadRestoresInterruptedSave(t *testing.T) {
	oldIx := testIndex(t, 30, 4, 23)
	newIx := testIndex(t, 30, 4, 24)
	dir := filepath.Join(t.TempDir(), "index")
	if err := oldIx.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Renames 1 and 2 publish index.bin and the manifest into the
	// stage, 3 moves the old index aside; 4 would swap the new one in.
	ffs := durable.NewFaultFS(durable.OS())
	ffs.CrashAt(durable.OpRename, 4)
	if err := newIx.save(ffs, dir); err == nil {
		t.Fatal("crashed save reported success")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("index dir present after a crash between the renames (stat err %v)", err)
	}

	var warned []string
	got, err := LoadOpts(dir, LoadOptions{Warn: func(msg string) { warned = append(warned, msg) }})
	if err != nil {
		t.Fatalf("interrupted save not restored: %v", err)
	}
	if len(warned) != 1 || !strings.Contains(warned[0], "restored") || !strings.Contains(warned[0], dir+durable.OldSuffix) {
		t.Errorf("warnings %q, want one naming the restore from %s%s", warned, dir, durable.OldSuffix)
	}
	if !bytes.Equal(got.Encode(), oldIx.Encode()) {
		t.Error("restored index is not the old one")
	}
}
