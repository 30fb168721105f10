package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/embed"
	"repro/internal/synth"
)

// faultFixture builds two distinct deployments — the "old" bundle on
// disk and the "new" one replacing it — whose on-disk bytes differ, so
// a hybrid of the two is detectable by manifest comparison.
func faultFixture(t *testing.T) (oldRes, newRes *Result) {
	t.Helper()
	spec := synth.Student(synth.StudentOptions{Students: 20, Seed: 3})
	var err error
	oldRes, err = BuildEmbedding(spec.DB, Config{Dim: 4, Seed: 3, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	newRes, err = BuildEmbedding(spec.DB, Config{Dim: 4, Seed: 4, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	return oldRes, newRes
}

// manifestKey renders a manifest's payload identities as one comparable
// string (name:sha pairs in manifest order).
func manifestKey(t *testing.T, dir string) string {
	t.Helper()
	m, _, err := durable.ReadDir(dir)
	if err != nil {
		t.Fatalf("bundle at %s fails verification: %v", dir, err)
	}
	var b strings.Builder
	for _, e := range m.Files {
		fmt.Fprintf(&b, "%s:%s;", e.Name, e.SHA256)
	}
	return b.String()
}

// TestSaveBundleCrashPointSweep is the fault-injection harness of the
// bundle lifecycle: for every filesystem operation a replacing
// SaveBundle performs, simulate a process crash at exactly that point
// (the op fails and no later operation — including cleanup — reaches
// the disk), then "restart" and require that LoadBundle succeeds and
// the bundle directory verifies as exactly the old bundle or exactly
// the new bundle. Torn (short) writes are swept separately for every
// write op. A transient-error sweep (the error path runs, unlike a
// crash) checks the same invariant when cleanup does get to execute.
func TestSaveBundleCrashPointSweep(t *testing.T) {
	oldRes, newRes := faultFixture(t)

	// Reference saves: capture the two manifests and the op counts of a
	// clean replacing save.
	refDir := filepath.Join(t.TempDir(), "bundle")
	if err := oldRes.SaveBundle(refDir); err != nil {
		t.Fatal(err)
	}
	oldKey := manifestKey(t, refDir)
	counter := durable.NewFaultFS(durable.OS())
	if err := newRes.saveBundle(counter, refDir); err != nil {
		t.Fatal(err)
	}
	newKey := manifestKey(t, refDir)
	if oldKey == newKey {
		t.Fatal("fixture bundles are identical on disk; the sweep cannot distinguish old from new")
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
					dir := filepath.Join(t.TempDir(), "bundle")
					if err := oldRes.SaveBundle(dir); err != nil {
						t.Fatal(err)
					}
					ffs := durable.NewFaultFS(durable.OS())
					inject(ffs, op, k)
					if short {
						ffs.ShortWrites()
					}
					if err := newRes.saveBundle(ffs, dir); err == nil {
						t.Fatalf("save with injected %s fault #%d reported success", op, k)
					}
					if !ffs.Fired() {
						t.Fatalf("fault %s #%d never fired; op count drifted from the reference save", op, k)
					}
					// "Restart": LoadBundle repairs an interrupted
					// publish and must find a complete bundle.
					if _, err := LoadBundle(dir); err != nil {
						t.Fatalf("bundle unloadable after crash at %s #%d: %v", op, k, err)
					}
					got := manifestKey(t, dir)
					if got != oldKey && got != newKey {
						t.Fatalf("crash at %s #%d left a hybrid bundle on disk:\n got %s\n old %s\n new %s",
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

	if crashPoints < 20 {
		t.Errorf("sweep covered only %d crash points; the op counts look implausibly low: %v", crashPoints, counts)
	}
}

// TestSaveBundleReportsFullDisk pins the regression the durability work
// started from: a payload write whose flush/close fails (a full disk)
// must fail the save, not report success over a truncated file.
func TestSaveBundleReportsFullDisk(t *testing.T) {
	oldRes, _ := faultFixture(t)
	for _, op := range []durable.Op{durable.OpSync, durable.OpClose} {
		for k := 1; k <= 2; k++ { // bundle.bin + manifest
			dir := filepath.Join(t.TempDir(), "bundle")
			ffs := durable.NewFaultFS(durable.OS())
			ffs.FailAt(op, k)
			if err := oldRes.saveBundle(ffs, dir); err == nil {
				t.Errorf("save succeeded with %s #%d failing", op, k)
			}
			if _, err := LoadBundle(dir); err == nil {
				t.Errorf("a bundle published despite %s #%d failing", op, k)
			}
		}
	}
}

// countMappings returns how many /proc/self/maps entries reference
// substr (a bundle directory path). Skips the test off linux.
func countMappings(t *testing.T, substr string) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps on this platform: %v", err)
	}
	return strings.Count(string(data), substr)
}

// TestLoadBundleRejectsSingleByteCorruption flips single bytes at the
// start, middle, and end of every bundle file — payloads and manifest —
// and requires LoadBundle to reject each mutation with an error naming
// the damaged file (manifest damage may be reported through the file
// whose record it corrupted; either way MANIFEST.json is named). A
// mapped load (LoadOptions.MMap) must fail with the same error and
// leave no mapping of the bundle behind.
func TestLoadBundleRejectsSingleByteCorruption(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		sweepByteCorruption(t, savedBundle(t), []string{bundleBinFile, durable.ManifestName})
	})
}

func sweepByteCorruption(t *testing.T, dir string, files []string) {
	for _, name := range files {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{0, len(orig) / 2, len(orig) - 1} {
			t.Run(fmt.Sprintf("%s@%d", name, off), func(t *testing.T) {
				corrupt := append([]byte(nil), orig...)
				corrupt[off] ^= 0xFF
				if err := os.WriteFile(path, corrupt, 0o644); err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := os.WriteFile(path, orig, 0o644); err != nil {
						t.Fatal(err)
					}
				}()
				_, err := LoadBundle(dir)
				if err == nil {
					t.Fatalf("bundle with %s byte %d flipped loaded cleanly", name, off)
				}
				if !strings.Contains(err.Error(), name) && !strings.Contains(err.Error(), durable.ManifestName) {
					t.Errorf("corruption error names neither %s nor the manifest: %v", name, err)
				}
				if _, mapErr := LoadBundleOpts(dir, LoadOptions{MMap: true}); mapErr == nil || mapErr.Error() != err.Error() {
					t.Errorf("mapped load fails with %v, read load with %v", mapErr, err)
				}
				if n := countMappings(t, dir); n != 0 {
					t.Errorf("%d mappings of the bundle left after a refused mapped load", n)
				}
			})
		}
	}
	// After every restore the bundle must still be pristine.
	if _, err := LoadBundle(dir); err != nil {
		t.Fatalf("restored bundle fails to load: %v", err)
	}
}

// TestLoadBundleRejectsTruncation cuts bundle.bin in half — the
// classic torn-write outcome — and requires a named rejection.
func TestLoadBundleRejectsTruncation(t *testing.T) {
	t.Run(bundleBinFile, func(t *testing.T) {
		dir := savedBundle(t)
		path := filepath.Join(dir, bundleBinFile)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, orig[:len(orig)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadBundle(dir)
		if err == nil || !strings.Contains(err.Error(), bundleBinFile) {
			t.Fatalf("truncated %s not rejected by name: %v", bundleBinFile, err)
		}
	})
}

// TestStaleStagingDirIsIgnored: garbage left in the staging sibling by
// a crashed save must never affect loading the published bundle, and
// the next save must clear it.
func TestStaleStagingDirIsIgnored(t *testing.T) {
	oldRes, newRes := faultFixture(t)
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := oldRes.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	staging := dir + durable.StagingSuffix
	if err := os.MkdirAll(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(staging, bundleBinFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(dir); err != nil {
		t.Fatalf("published bundle unloadable with stale staging present: %v", err)
	}
	if err := newRes.SaveBundle(dir); err != nil {
		t.Fatalf("save over stale staging: %v", err)
	}
	if _, err := LoadBundle(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(staging); !os.IsNotExist(err) {
		t.Error("stale staging dir survived a clean save")
	}
}

// TestLoadBundleRestoresInterruptedSave: a save that crashes between
// the swap's two renames leaves no bundle at dir and the old one at
// dir.old. LoadBundleOpts restores the old bundle, loads it, and
// reports the restore through Warn.
func TestLoadBundleRestoresInterruptedSave(t *testing.T) {
	oldRes, newRes := faultFixture(t)
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := oldRes.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	oldKey := manifestKey(t, dir)
	// Renames 1 and 2 publish bundle.bin and the manifest into the
	// stage, 3 moves the old bundle aside; 4 would swap the new one in.
	ffs := durable.NewFaultFS(durable.OS())
	ffs.CrashAt(durable.OpRename, 4)
	if err := newRes.saveBundle(ffs, dir); err == nil {
		t.Fatal("crashed save reported success")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("bundle dir present after a crash between the renames (stat err %v)", err)
	}

	var warned []string
	if _, err := LoadBundleOpts(dir, LoadOptions{Warn: func(msg string) { warned = append(warned, msg) }}); err != nil {
		t.Fatalf("interrupted save not restored: %v", err)
	}
	if len(warned) != 1 || !strings.Contains(warned[0], "restored") || !strings.Contains(warned[0], dir+durable.OldSuffix) {
		t.Errorf("warnings %q, want one naming the restore from %s%s", warned, dir, durable.OldSuffix)
	}
	if got := manifestKey(t, dir); got != oldKey {
		t.Errorf("restored bundle is not the old one:\n got %s\nwant %s", got, oldKey)
	}
}
