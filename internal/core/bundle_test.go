package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
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

// TestBundleGoldenFixture is the format golden test: the committed
// bundle an earlier build wrote (pinned by SHA-256 and size, and a
// fixed point of decode then encode) and a fresh deterministic build
// of the same deployment, saved by this build, must agree on every
// name and every vector bit and featurize byte-identically after
// loading — a format change may not move a single served feature.
func TestBundleGoldenFixture(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join(goldenBundleFixture, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(committed)
	if got := hex.EncodeToString(sum[:]); got != goldenFixtureSHA256 || len(committed) != goldenFixtureBytes {
		t.Errorf("fixture bundle.bin: sha256 %s, %d bytes; want %s, %d bytes",
			got, len(committed), goldenFixtureSHA256, goldenFixtureBytes)
	}
	spec, res := goldenFixture(t, "")
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	fresh, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := LoadBundle(goldenBundleFixture)
	if err != nil {
		t.Fatal(err)
	}
	if golden.BundleFormat != BundleFormatVersion || fresh.BundleFormat != BundleFormatVersion {
		t.Errorf("BundleFormat: fixture %d, fresh %d", golden.BundleFormat, fresh.BundleFormat)
	}
	if again, err := encodeBundleV4(golden); err != nil || !bytes.Equal(again, committed) {
		t.Errorf("re-encoding the fixture changed its bytes (err %v)", err)
	}

	namesGolden, namesFresh := golden.Embedding.Names(), fresh.Embedding.Names()
	if len(namesGolden) != len(namesFresh) {
		t.Fatalf("entity counts differ: fixture %d, fresh %d", len(namesGolden), len(namesFresh))
	}
	for i, name := range namesGolden {
		if name != namesFresh[i] {
			t.Fatalf("name order differs at %d: fixture %q, fresh %q", i, name, namesFresh[i])
		}
		want, _ := golden.Embedding.Vector(name)
		got, _ := fresh.Embedding.Vector(name)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("vector %q[%d]: fresh %v, fixture %v", name, j, got[j], want[j])
			}
		}
	}
	base := spec.DB.Table("expenses")
	for _, graphRow := range []func(int) int{
		func(i int) int { return i },
		func(int) int { return -1 },
	} {
		want, err := golden.Featurize(base, "expenses", []string{"total_expenses"}, graphRow)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Featurize(base, "expenses", []string{"total_expenses"}, graphRow)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("feature [%d][%d]: fresh %v, fixture %v", i, j, got[i][j], want[i][j])
				}
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

// Committed version-6 bundles that an earlier build's `leva bundle
// convert` wrote from the version-5 fixtures (themselves converted from
// the last JSON-layout, version-3 ones). Each holds the deployment
// named beside it, so a test can rebuild the same deployment
// deterministically and compare.
const (
	goldenBundleFixture = "testdata/v6-dim6"  // goldenFixture, warm build
	benchBundleFixture  = "testdata/v6-dim16" // 150 students: load benchmarks
)

// goldenFixtureSHA256 and goldenFixtureBytes pin goldenBundleFixture's
// bundle.bin: the v5→v6 conversion of its version-5 predecessor.
const (
	goldenFixtureSHA256 = "aa5a23f63588636ef1b585b98ff899d8e2778b55bbb5d971677fae868cc34c3a"
	goldenFixtureBytes  = 13933
)

// writeSealedBundle writes data as dir's bundle.bin and seals it with a
// manifest recording version, the way SaveBundle publishes a bundle.
func writeSealedBundle(t testing.TB, dir string, data []byte, version int) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bundleBinFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	m := &durable.Manifest{FormatVersion: version}
	m.Add(bundleBinFile, data)
	if err := durable.WriteManifest(durable.OS(), dir, m); err != nil {
		t.Fatal(err)
	}
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

// goldenFixture builds the goldenBundleFixture deployment. With a
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
// recording the current format version, and nothing else.
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
	if len(man.Files) != 1 || man.Entry(bundleBinFile) == nil {
		t.Errorf("manifest lists %+v, want %s alone", man.Files, bundleBinFile)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("bundle directory holds %d files, want %s and %s", len(entries), bundleBinFile, durable.ManifestName)
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

// TestBundleFormatVersion pins the version LoadBundle reads: a saved
// bundle records the current version in its manifest, its bundle.bin
// header and its config section, and a manifest recording any older
// version (0 to 3, the JSON layout; 4 and 5, the float64 arena) is
// refused by ErrVersion, naming the manifest and how to rebuild.
func TestBundleFormatVersion(t *testing.T) {
	dir := savedBundle(t)
	data, err := os.ReadFile(filepath.Join(dir, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[len(bundleMagic):]); v != BundleFormatVersion {
		t.Errorf("bundle.bin header version = %d, want %d", v, BundleFormatVersion)
	}
	if !bytes.Contains(data, []byte(fmt.Sprintf(`"formatVersion":%d`, BundleFormatVersion))) {
		t.Errorf("config section does not record formatVersion %d", BundleFormatVersion)
	}

	for v := 0; v < BundleFormatVersion; v++ {
		old := filepath.Join(t.TempDir(), fmt.Sprintf("v%d", v))
		writeSealedBundle(t, old, data, v)
		_, err := LoadBundle(old)
		if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), filepath.Join(old, durable.ManifestName)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("format version %d", v)) || !strings.Contains(err.Error(), rebuildHint) {
			t.Errorf("manifest version %d: got %v, want ErrVersion naming the manifest, the version and %q", v, err, rebuildHint)
		}
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
// sealed file (manifest resealed over the patched bytes, so the
// integrity check passes) claiming a newer binary revision is refused
// by the decoder with ErrVersion, naming the version and the file.
func TestFutureBinaryVersionRejected(t *testing.T) {
	dir := savedBundle(t)
	path := filepath.Join(dir, bundleBinFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(bundleMagic)] = 99 // version u32 little-endian low byte
	writeSealedBundle(t, dir, data, BundleFormatVersion)
	_, err = LoadBundle(dir)
	if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "version 99") || !strings.Contains(err.Error(), path) {
		t.Errorf("future binary version not rejected by ErrVersion naming it and %s: %v", path, err)
	}
}

func TestLoadBundleErrorsNamePath(t *testing.T) {
	t.Run("missing-file", func(t *testing.T) {
		dir := savedBundle(t)
		path := filepath.Join(dir, bundleBinFile)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, err := LoadBundle(dir)
		if err == nil {
			t.Fatal("bundle with missing bundle.bin loaded")
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

// jsonLayoutBundle writes a directory in the retired JSON layout
// (format versions 0–3): config.json, textify.json and embedding.tsv,
// sealed by a version-3 manifest when sealed is set.
func jsonLayoutBundle(t *testing.T, sealed bool) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"config.json":   `{"formatVersion": 3, "dim": 2, "featurization": "row+value", "methodUsed": "mf"}`,
		"textify.json":  `{}`,
		"embedding.tsv": "expenses:0\t0.5 -0.5\n",
	}
	m := &durable.Manifest{FormatVersion: 3}
	for _, name := range []string{"config.json", "textify.json", "embedding.tsv"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(files[name]), 0o644); err != nil {
			t.Fatal(err)
		}
		m.Add(name, []byte(files[name]))
	}
	if sealed {
		if err := durable.WriteManifest(durable.OS(), dir, m); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestUnreadableBundlesRefused: LoadBundle (read and mapped) and
// ReadBundleInfo refuse every directory that is not a sealed version-6
// bundle, each with a named error that says how to rebuild and leaves
// no mapping behind: the JSON layout with or without its manifest, a
// bundle.bin whose manifest is gone, a manifest that does not list
// bundle.bin, and the older binary versions — a version-4 twin of the
// golden fixture and the committed version-5 bundle, refused by their
// manifests, and that version-5 bundle.bin sealed by a version-6
// manifest, refused by its header.
func TestUnreadableBundlesRefused(t *testing.T) {
	unsealed := savedBundle(t)
	if err := os.Remove(filepath.Join(unsealed, durable.ManifestName)); err != nil {
		t.Fatal(err)
	}
	unlisted := savedBundle(t)
	m := &durable.Manifest{FormatVersion: BundleFormatVersion}
	m.Add("config.json", []byte("{}"))
	if err := durable.WriteManifest(durable.OS(), unlisted, m); err != nil {
		t.Fatal(err)
	}
	v4Bin, err := os.ReadFile(filepath.Join(goldenBundleFixture, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	v4Bin[len(bundleMagic)] = 4 // version u32 little-endian low byte
	v4 := t.TempDir()
	writeSealedBundle(t, v4, v4Bin, 4)
	v5Bin, err := os.ReadFile(filepath.Join(v5QuantFixture, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	v5Resealed := t.TempDir()
	writeSealedBundle(t, v5Resealed, v5Bin, BundleFormatVersion)
	for _, c := range []struct {
		name  string
		dir   string
		want  error
		names string
	}{
		{"json-layout", jsonLayoutBundle(t, true), ErrVersion, durable.ManifestName},
		{"json-layout-unsealed", jsonLayoutBundle(t, false), durable.ErrNoManifest, durable.ManifestName},
		{"bundle.bin-unsealed", unsealed, durable.ErrNoManifest, durable.ManifestName},
		{"manifest-without-bundle.bin", unlisted, ErrCorrupt, bundleBinFile},
		{"v4-twin", v4, ErrVersion, durable.ManifestName},
		{"v5-fixture", v5QuantFixture, ErrVersion, durable.ManifestName},
		{"v5-bundle.bin-sealed-as-v6", v5Resealed, ErrVersion, bundleBinFile},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, loadErr := LoadBundle(c.dir)
			_, mapErr := LoadBundleOpts(c.dir, LoadOptions{MMap: true})
			_, infoErr := ReadBundleInfo(c.dir)
			for what, err := range map[string]error{"LoadBundle": loadErr, "mapped LoadBundle": mapErr, "ReadBundleInfo": infoErr} {
				if !errors.Is(err, c.want) {
					t.Errorf("%s: got %v, want %v", what, err, c.want)
					continue
				}
				if !strings.Contains(err.Error(), c.dir) || !strings.Contains(err.Error(), c.names) || !strings.Contains(err.Error(), rebuildHint) {
					t.Errorf("%s: %v does not name %s, %s and %q", what, err, c.dir, c.names, rebuildHint)
				}
			}
			if n := countMappings(t, c.dir); n != 0 {
				t.Errorf("%d mappings left after a refused load", n)
			}
		})
	}
}

// TestBundleCarriesBuildProvenance checks bundles preserve the
// stage-cache outcomes and the unweighted-fallback decision of the
// build that produced them: a warm build saved by this build, and the
// committed fixture an earlier build saved from the same warm build.
func TestBundleCarriesBuildProvenance(t *testing.T) {
	_, warm := goldenFixture(t, t.TempDir())
	binDir := t.TempDir()
	if err := warm.SaveBundle(binDir); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"binary": binDir, "fixture": goldenBundleFixture} {
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

// TestReadBundleInfo covers the inspection path over a bundle this
// build saved and over the committed fixture an earlier build saved:
// each report must match the deployment the bundle holds.
func TestReadBundleInfo(t *testing.T) {
	_, golden := goldenFixture(t, "")
	for name, c := range map[string]struct {
		dir string
		res *Result
	}{
		"binary":  {savedBundle(t), bundleFixture(t)},
		"fixture": {goldenBundleFixture, golden},
	} {
		res := c.res
		t.Run(name, func(t *testing.T) {
			info, err := ReadBundleInfo(c.dir)
			if err != nil {
				t.Fatal(err)
			}
			if info.FormatVersion != BundleFormatVersion {
				t.Errorf("format version %d, want %d", info.FormatVersion, BundleFormatVersion)
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
			if info.SymbolBytes <= 0 || info.PayloadBytes <= info.SymbolBytes+info.ArenaBytes {
				t.Errorf("sizes not populated: %+v", info)
			}
			// The arena section is an 8-byte dim/rows header plus the
			// float32 vectors.
			if want := int64(8 + 4*len(res.Embedding.Arena())); info.ArenaBytes != want {
				t.Errorf("arena bytes = %d, want %d", info.ArenaBytes, want)
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
