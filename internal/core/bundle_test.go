package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/embed"
	"repro/internal/synth"
)

func TestBundleRoundTrip(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 40, Seed: 11})
	res, err := BuildEmbedding(spec.DB, Config{
		Dim: 8, Seed: 11, Method: embed.MethodMF, UnseenFallbackDims: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Embedding.Len() != res.Embedding.Len() || back.Embedding.Dim != 8 {
		t.Fatalf("embedding shape changed: %d/%d", back.Embedding.Len(), back.Embedding.Dim)
	}
	if back.Config.UnseenFallbackDims != 3 {
		t.Errorf("fallback dims = %d", back.Config.UnseenFallbackDims)
	}
	if back.BundleFormat != BundleFormatVersion {
		t.Errorf("loaded BundleFormat = %d, want %d", back.BundleFormat, BundleFormatVersion)
	}

	// Featurization must be byte-identical before and after the round
	// trip, for train-style and test-style rows alike (the binary
	// format stores raw float64 bits, so equality is ==, not a
	// tolerance).
	base := spec.DB.Table("expenses")
	for _, graphRow := range []func(int) int{
		func(i int) int { return i },
		func(int) int { return -1 },
	} {
		want, err := res.Featurize(base, "expenses", []string{"total_expenses"}, graphRow)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Featurize(base, "expenses", []string{"total_expenses"}, graphRow)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("feature [%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestBundleGoldenLegacyVsBinary is the migration golden test: the
// committed legacy fixture and a fresh deterministic build of the same
// deployment, saved in the binary format, must featurize
// byte-identically after loading — every served feature vector is
// unchanged by the format migration.
func TestBundleGoldenLegacyVsBinary(t *testing.T) {
	spec, res := goldenFixture(t, "")
	v4Dir := t.TempDir()
	if err := res.SaveBundle(v4Dir); err != nil {
		t.Fatal(err)
	}
	var warned []string
	fromV4, err := LoadBundle(v4Dir)
	if err != nil {
		t.Fatal(err)
	}
	fromV3, err := LoadBundleWarn(legacyFixtureDim6, func(msg string) { warned = append(warned, msg) })
	if err != nil {
		t.Fatal(err)
	}
	if len(warned) == 0 || !strings.Contains(warned[0], "legacy") {
		t.Errorf("legacy bundle loaded without a legacy warning: %v", warned)
	}
	if fromV3.BundleFormat != 3 || fromV4.BundleFormat != BundleFormatVersion {
		t.Errorf("BundleFormat: legacy %d, binary %d", fromV3.BundleFormat, fromV4.BundleFormat)
	}

	// The two loads must agree on every name and every vector bit.
	namesV3, namesV4 := fromV3.Embedding.Names(), fromV4.Embedding.Names()
	if len(namesV3) != len(namesV4) {
		t.Fatalf("entity counts differ: %d vs %d", len(namesV3), len(namesV4))
	}
	for i := range namesV3 {
		if namesV3[i] != namesV4[i] {
			t.Fatalf("name order differs at %d: %q vs %q", i, namesV3[i], namesV4[i])
		}
	}
	base := spec.DB.Table("expenses")
	want, err := fromV3.Featurize(base, "expenses", []string{"total_expenses"}, func(i int) int { return i })
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromV4.Featurize(base, "expenses", []string{"total_expenses"}, func(i int) int { return i })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("feature [%d][%d]: binary %v, legacy %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestLoadBundleErrors(t *testing.T) {
	if _, err := LoadBundle(t.TempDir()); err == nil {
		t.Error("empty dir loaded")
	}
}

// savedBundle builds a minimal deployment and saves it to a fresh dir
// in the current binary format.
func savedBundle(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := bundleFixture(t).SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// Committed legacy bundles (format version 3, JSON layout), the legacy
// read path's fixtures: nothing writes that layout any more. Each holds
// the deployment named beside it, so a test can rebuild the same
// deployment deterministically and compare.
const (
	legacyFixtureDim3  = "testdata/legacy-v3-dim3"  // the fuzz deployment
	legacyFixtureDim4  = "testdata/legacy-v3-dim4"  // bundleFixture
	legacyFixtureDim6  = "testdata/legacy-v3-dim6"  // goldenFixture, warm build
	legacyFixtureDim16 = "testdata/legacy-v3-dim16" // 150 students: load benchmarks
)

// savedLegacyBundle copies the bundleFixture deployment's legacy
// fixture into a fresh dir that the test may damage.
func savedLegacyBundle(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(legacyFixtureDim4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(legacyFixtureDim4, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func bundleFixture(t *testing.T) *Result {
	t.Helper()
	spec := synth.Student(synth.StudentOptions{Students: 20, Seed: 3})
	res, err := BuildEmbedding(spec.DB, Config{Dim: 4, Seed: 3, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenFixture builds the legacyFixtureDim6 deployment. With a
// cacheDir it builds twice and returns the warm (stage-cached) build,
// whose provenance the fixture records.
func goldenFixture(t *testing.T, cacheDir string) (*synth.Spec, *Result) {
	t.Helper()
	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 7})
	cfg := Config{Dim: 6, Seed: 7, Method: embed.MethodMF, CacheDir: cacheDir}
	if cacheDir != "" {
		if _, err := BuildEmbedding(spec.DB, cfg); err != nil {
			t.Fatal(err)
		}
	}
	res, err := BuildEmbedding(spec.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res
}

// TestBundleV4Layout pins the on-disk shape of a current-format bundle:
// one bundle.bin payload starting with the magic, sealed by a manifest
// recording formatVersion 4.
func TestBundleV4Layout(t *testing.T) {
	dir := savedBundle(t)
	data, err := os.ReadFile(filepath.Join(dir, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(bundleMagic)) {
		t.Fatalf("bundle.bin does not start with %q: % x", bundleMagic, data[:16])
	}
	man, err := durable.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != BundleFormatVersion {
		t.Errorf("manifest formatVersion = %d, want %d", man.FormatVersion, BundleFormatVersion)
	}
	if man.Entry(bundleBinFile) == nil {
		t.Errorf("manifest does not list %s", bundleBinFile)
	}
	for _, legacy := range []string{bundleConfigFile, bundleTextifyFile, bundleEmbeddingFile} {
		if _, err := os.Stat(filepath.Join(dir, legacy)); !os.IsNotExist(err) {
			t.Errorf("binary bundle contains legacy file %s", legacy)
		}
	}
}

// TestBundleV4EncodeDeterministic: encoding is a pure function of the
// Result — encode(decode(encode(r))) == encode(r), byte for byte.
func TestBundleV4EncodeDeterministic(t *testing.T) {
	res := bundleFixture(t)
	enc1, err := encodeBundleV4(res)
	if err != nil {
		t.Fatal(err)
	}
	enc1Again, err := encodeBundleV4(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc1Again) {
		t.Fatal("two encodes of the same Result differ")
	}
	dec, err := decodeBundleV4(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := encodeBundleV4(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("re-encode after decode differs: %d vs %d bytes", len(enc1), len(enc2))
	}
}

func TestBundleFormatVersion(t *testing.T) {
	dir := savedLegacyBundle(t)
	cfgPath := filepath.Join(dir, bundleConfigFile)
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"formatVersion": 3`) {
		t.Fatalf("legacy config.json does not record formatVersion 3:\n%s", data)
	}

	// Hand-editing a payload file invalidates the manifest, so these
	// scenarios model legacy (pre-manifest) bundles: drop MANIFEST.json
	// and let the config.json version check do its own work.
	if err := os.Remove(filepath.Join(dir, durable.ManifestName)); err != nil {
		t.Fatal(err)
	}

	// A bundle from a future build must be rejected, not mis-decoded.
	future := strings.Replace(string(data), `"formatVersion": 3`, `"formatVersion": 99`, 1)
	if err := os.WriteFile(cfgPath, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBundle(dir)
	if err == nil {
		t.Fatal("future-version bundle loaded")
	}
	if !strings.Contains(err.Error(), "format version 99") || !strings.Contains(err.Error(), cfgPath) {
		t.Errorf("version error should name the version and file: %v", err)
	}

	// Legacy pre-versioned bundles (no formatVersion field) still load,
	// and the warning hook reports the missing manifest.
	legacy := strings.Replace(string(data), `"formatVersion": 3,`, ``, 1)
	if err := os.WriteFile(cfgPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	if _, err := LoadBundleWarn(dir, func(msg string) { warnings = append(warnings, msg) }); err != nil {
		t.Errorf("legacy bundle without formatVersion rejected: %v", err)
	}
	if len(warnings) == 0 || !strings.Contains(warnings[0], durable.ManifestName) {
		t.Errorf("legacy bundle load did not warn about the missing manifest: %v", warnings)
	}
}

// TestFutureManifestVersionRejected covers the manifest-level version
// gate: a bundle whose MANIFEST.json claims a newer format is rejected
// before any payload decoding.
func TestFutureManifestVersionRejected(t *testing.T) {
	dir := savedBundle(t)
	manPath := filepath.Join(dir, durable.ManifestName)
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(string(data), fmt.Sprintf(`"formatVersion": %d`, BundleFormatVersion), `"formatVersion": 99`, 1)
	if future == string(data) {
		t.Fatalf("manifest does not record formatVersion %d:\n%s", BundleFormatVersion, data)
	}
	if err := os.WriteFile(manPath, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBundle(dir)
	if err == nil || !strings.Contains(err.Error(), "format version 99") {
		t.Errorf("future manifest version not rejected by name: %v", err)
	}
}

// TestFutureBinaryVersionRejected covers the bundle.bin header gate: a
// file claiming a newer binary revision fails with ErrVersion even when
// the manifest is gone.
func TestFutureBinaryVersionRejected(t *testing.T) {
	dir := savedBundle(t)
	path := filepath.Join(dir, bundleBinFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(bundleMagic)] = 99 // version u32 little-endian low byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, durable.ManifestName)); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBundle(dir)
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("future binary version not rejected by name: %v", err)
	}
}

func TestLoadBundleErrorsNamePath(t *testing.T) {
	// Legacy layout: each corrupted payload file is named. (The
	// manifest is dropped so the per-file decoders, not the integrity
	// check, produce the error — modelling pre-durability bundles.)
	for _, corrupt := range []string{bundleConfigFile, bundleTextifyFile, bundleEmbeddingFile} {
		t.Run(corrupt, func(t *testing.T) {
			dir := savedLegacyBundle(t)
			if err := os.Remove(filepath.Join(dir, durable.ManifestName)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, corrupt)
			if err := os.WriteFile(path, []byte("{{{ not valid"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadBundle(dir)
			if err == nil {
				t.Fatalf("bundle with corrupt %s loaded", corrupt)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error does not name the corrupt file %s: %v", path, err)
			}
		})
	}
	t.Run("missing-file", func(t *testing.T) {
		dir := savedLegacyBundle(t)
		path := filepath.Join(dir, bundleEmbeddingFile)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, err := LoadBundle(dir)
		if err == nil {
			t.Fatal("bundle with missing embedding loaded")
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error does not name the missing file %s: %v", path, err)
		}
	})
	t.Run("corrupt-bundle.bin", func(t *testing.T) {
		dir := savedBundle(t)
		path := filepath.Join(dir, bundleBinFile)
		if err := os.WriteFile(path, []byte("not a bundle"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadBundle(dir)
		if err == nil {
			t.Fatal("bundle with corrupt bundle.bin loaded")
		}
		if !strings.Contains(err.Error(), bundleBinFile) {
			t.Errorf("error does not name %s: %v", bundleBinFile, err)
		}
	})
}

// TestBundleCarriesBuildProvenance checks bundles preserve the
// stage-cache outcomes and the unweighted-fallback decision of the
// build that produced them, across both formats: a warm build saved in
// the binary format, and the legacy fixture saved from the same warm
// build.
func TestBundleCarriesBuildProvenance(t *testing.T) {
	_, warm := goldenFixture(t, t.TempDir())
	binDir := t.TempDir()
	if err := warm.SaveBundle(binDir); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"binary": binDir, "legacy": legacyFixtureDim6} {
		t.Run(name, func(t *testing.T) {
			back, err := LoadBundle(dir)
			if err != nil {
				t.Fatal(err)
			}
			if back.Timings.Cache != warm.Timings.Cache {
				t.Errorf("stage cache provenance lost: saved %+v, loaded %+v",
					warm.Timings.Cache, back.Timings.Cache)
			}
			if back.Timings.Cache.Embed != StageCached {
				t.Errorf("warm build provenance not recorded: %+v", back.Timings.Cache)
			}
			if back.UnweightedFallback != warm.UnweightedFallback {
				t.Error("fallback decision lost")
			}
		})
	}
}

// TestReadBundleInfo covers the inspection path over both formats.
func TestReadBundleInfo(t *testing.T) {
	res := bundleFixture(t)
	for name, dir := range map[string]string{
		"binary": savedBundle(t),
		"legacy": legacyFixtureDim4,
	} {
		t.Run(name, func(t *testing.T) {
			info, err := ReadBundleInfo(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Verified {
				t.Error("freshly saved bundle reported unverified")
			}
			if info.Dim != res.Embedding.Dim || info.Entities != res.Embedding.Len() {
				t.Errorf("info shape %d/%d, want %d/%d", info.Entities, info.Dim, res.Embedding.Len(), res.Embedding.Dim)
			}
			if info.MethodUsed != res.MethodUsed {
				t.Errorf("method %q, want %q", info.MethodUsed, res.MethodUsed)
			}
			wantTables := res.Textifier.Tables()
			if len(info.Columns) != len(wantTables) {
				t.Fatalf("info lists %d tables, want %d", len(info.Columns), len(wantTables))
			}
			for i, tc := range info.Columns {
				if tc.Table != wantTables[i] {
					t.Errorf("table[%d] = %q, want %q", i, tc.Table, wantTables[i])
				}
				want := res.Textifier.Columns(tc.Table)
				if len(tc.Columns) != len(want) {
					t.Errorf("table %s lists %d columns, want %d", tc.Table, len(tc.Columns), len(want))
					continue
				}
				for j := range want {
					if tc.Columns[j] != want[j] {
						t.Errorf("table %s column[%d] = %q, want %q", tc.Table, j, tc.Columns[j], want[j])
					}
				}
			}
			if info.SymbolBytes <= 0 || info.ArenaBytes <= 0 || info.PayloadBytes <= 0 {
				t.Errorf("sizes not populated: %+v", info)
			}
			wantArena := int64(8 * len(res.Embedding.Matrix().Data))
			if name == "binary" {
				wantArena += 8 // dim/rows header
			}
			if info.ArenaBytes != wantArena {
				t.Errorf("arena bytes = %d, want %d", info.ArenaBytes, wantArena)
			}
		})
	}
}

// TestLoadBundleMMap exercises the mmap load path end to end where the
// platform has one; elsewhere it checks the fallback warning fires.
func TestLoadBundleMMap(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 20, Seed: 3})
	res, err := BuildEmbedding(spec.DB, Config{Dim: 4, Seed: 3, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	var warned []string
	back, err := LoadBundleOpts(dir, LoadOptions{
		MMap: true,
		Warn: func(msg string) { warned = append(warned, msg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if durable.MapSupported && len(warned) != 0 {
		t.Errorf("mmap load warned unexpectedly: %v", warned)
	}
	if !durable.MapSupported && len(warned) == 0 {
		t.Error("mmap-unsupported platform did not warn about the fallback")
	}
	for _, name := range res.Embedding.Names() {
		want, _ := res.Embedding.Vector(name)
		got, ok := back.Embedding.Vector(name)
		if !ok {
			t.Fatalf("entity %q missing from mmap-loaded bundle", name)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("vector %q[%d] = %v, want %v", name, j, got[j], want[j])
			}
		}
	}
}
