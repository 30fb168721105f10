package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/dataset"
	"repro/internal/durable"
)

// v5QuantFixture is a version-5 bundle that still carries the int8
// quant section (id 7) older builds wrote under `leva embed -quantize`:
// 489 entities x 4 dims, from `levagen -dataset student -scale 0.02
// -seed 3` and `leva embed -dim 4 -seed 3 -method mf -no-cache
// -quantize`. Nothing writes that section any more; readers ignore it.
const v5QuantFixture = "testdata/v5-quant-dim4"

// secRetiredQuant is the id the removed quant section was written
// under. No reader gives it a meaning.
const secRetiredQuant = 7

func readFixtureBin(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(v5QuantFixture, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sectionIDs lists the section ids of a bundle.bin in table order.
func sectionIDs(t testing.TB, data []byte) []int {
	t.Helper()
	if _, _, err := bundleSections(data); err != nil {
		t.Fatal(err)
	}
	n := int(binary.LittleEndian.Uint32(data[len(bundleMagic)+4:]))
	ids := make([]int, n)
	for i := range ids {
		ids[i] = int(binary.LittleEndian.Uint32(data[len(bundleMagic)+8+24*i:]))
	}
	return ids
}

// withSections re-assembles a bundle.bin with the payloads in replace
// standing in for the sections of those ids; every other section, and
// the order of the section table, is unchanged.
func withSections(t testing.TB, data []byte, replace map[int][]byte) []byte {
	t.Helper()
	secs, version, err := bundleSections(data)
	if err != nil {
		t.Fatal(err)
	}
	ids := sectionIDs(t, data)
	w := &sectionWriter{}
	w.buf = make([]byte, len(bundleMagic)+8+24*len(ids))
	for _, id := range ids {
		payload, ok := replace[id]
		if !ok {
			payload = secs[id]
		}
		w.add(id, payload)
	}
	h := append(w.buf[:0], bundleMagic...)
	h = binary.LittleEndian.AppendUint32(h, uint32(version))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(w.table)))
	for _, e := range w.table {
		h = binary.LittleEndian.AppendUint32(h, uint32(e.id))
		h = binary.LittleEndian.AppendUint32(h, 0)
		h = binary.LittleEndian.AppendUint64(h, e.off)
		h = binary.LittleEndian.AppendUint64(h, e.length)
	}
	return w.buf
}

// withSection7 re-assembles the fixture's bundle.bin with payload as
// its id 7 section, every other section unchanged.
func withSection7(t testing.TB, payload []byte) []byte {
	t.Helper()
	return withSections(t, readFixtureBin(t), map[int][]byte{secRetiredQuant: payload})
}

// fixtureRows are expenses rows of the fixture's data set, plus one
// the embedding never saw.
func fixtureRows(t *testing.T) *dataset.Table {
	t.Helper()
	tb, err := dataset.ReadCSV("expenses", strings.NewReader(`name,gender,school_name,total_expenses
student_00000,female,school_6,257
student_00001,male,school_9,486
student_00004,nonbinary,school_3,300
student_99999,female,school_42,100
`))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestBundleV5QuantFixture: a version-5 bundle written with the quant
// section loads and verifies through both load paths, and featurizes
// and embeds exactly like its re-encode, which carries no section 7.
func TestBundleV5QuantFixture(t *testing.T) {
	if ids := sectionIDs(t, readFixtureBin(t)); ids[len(ids)-1] != secRetiredQuant {
		t.Fatalf("fixture sections %v do not end with the quant section", ids)
	}
	dir := filepath.Join(t.TempDir(), "reencoded")
	fixture, err := LoadBundle(v5QuantFixture)
	if err != nil {
		t.Fatal(err)
	}
	if fixture.BundleFormat != 5 {
		t.Errorf("BundleFormat = %d, want 5", fixture.BundleFormat)
	}
	if err := fixture.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	if ids := sectionIDs(t, data); !reflect.DeepEqual(ids, []int{1, 2, 3, 4, 5, 6}) {
		t.Errorf("re-encoded sections = %v, want 1 through 6", ids)
	}
	want, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}

	checks := map[string]*Result{"read": fixture}
	if durable.MapSupported {
		mapped, err := LoadBundleOpts(v5QuantFixture, LoadOptions{MMap: true})
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Unmap()
		checks["mmap"] = mapped
	}
	rows := fixtureRows(t)
	exclude := []string{"total_expenses"}
	for name, got := range checks {
		if got.Embedding.Len() != want.Embedding.Len() || got.Embedding.Len() != 489 {
			t.Fatalf("%s: %d entities, re-encode has %d", name, got.Embedding.Len(), want.Embedding.Len())
		}
		for i := 0; i < want.Embedding.Len(); i++ {
			key := want.Embedding.Symbols().At(i)
			gv, ok := got.Embedding.Vector(key)
			wv, _ := want.Embedding.Vector(key)
			if !ok || !reflect.DeepEqual(gv, wv) {
				t.Fatalf("%s: vector %q = %v, re-encode has %v", name, key, gv, wv)
			}
		}
		for i := 0; i < rows.NumRows(); i++ {
			graphRow := i
			if i == rows.NumRows()-1 {
				graphRow = -1
			}
			for _, mode := range []FeaturizationMode{RowPlusValue, RowOnly} {
				g, err := got.FeaturizeRow(rows, "expenses", exclude, i, graphRow, mode)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want.FeaturizeRow(rows, "expenses", exclude, i, graphRow, mode)
				if err != nil {
					t.Fatal(err)
				}
				for j := range w {
					if g[j] != w[j] {
						t.Fatalf("%s: row %d mode %v feature %d = %v, re-encode has %v", name, i, mode, j, g[j], w[j])
					}
				}
			}
		}
	}
}

// TestBundleWithoutQuant: SaveBundle writes the six sections of the
// format and no quant section.
func TestBundleWithoutQuant(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(savedBundle(t), bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	if ids := sectionIDs(t, data); !reflect.DeepEqual(ids, []int{1, 2, 3, 4, 5, 6}) {
		t.Errorf("sections = %v, want 1 through 6", ids)
	}
}

// TestBundleV4StillLoads: a version-4 file (header and config version
// 4, float64 arena) decodes to the same float32 arena — the v5 and v6
// bumps do not orphan existing deployments.
func TestBundleV4StillLoads(t *testing.T) {
	res := bundleFixture(t)
	enc, err := encodeBundleV4(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeBundleV4(toVersion4(t, enc))
	if err != nil {
		t.Fatalf("version-4 bundle rejected: %v", err)
	}
	if dec.BundleFormat != 4 {
		t.Errorf("BundleFormat = %d, want 4", dec.BundleFormat)
	}
	if !reflect.DeepEqual(dec.Embedding.Arena(), res.Embedding.Arena()) {
		t.Error("version-4 arena differs")
	}
}

// toVersion4 rewrites a version-5 or version-6 bundle.bin as its
// version-4 twin: header version 4, the config section's formatVersion
// 4 and, from version 6, the float32 arena widened to the float64 arena
// versions before 6 store.
func toVersion4(t *testing.T, enc []byte) []byte {
	t.Helper()
	secs, version, err := bundleSections(enc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bytes.Replace(secs[secConfig], []byte(fmt.Sprintf(`"formatVersion":%d`, version)), []byte(`"formatVersion":4`), 1)
	if bytes.Equal(cfg, secs[secConfig]) {
		t.Fatal("config formatVersion not found to patch")
	}
	replace := map[int][]byte{secConfig: cfg}
	if version >= arenaF32Version {
		arena := secs[secArena]
		wide := append([]byte(nil), arena[:8]...)
		for off := 8; off < len(arena); off += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(arena[off:]))
			wide = binary.LittleEndian.AppendUint64(wide, math.Float64bits(float64(v)))
		}
		replace[secArena] = wide
	}
	v4 := withSections(t, enc, replace)
	v4[len(bundleMagic)] = 4
	return v4
}

// TestQuantSectionIgnoredInV4File: a version-4 file that carries an
// id 7 section decodes to the same embedding as the version-5 file it
// came from.
func TestQuantSectionIgnoredInV4File(t *testing.T) {
	v5 := readFixtureBin(t)
	want, err := decodeBundleV4(v5)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeBundleV4(toVersion4(t, v5))
	if err != nil {
		t.Fatalf("v4 file with a quant section id rejected: %v", err)
	}
	if !reflect.DeepEqual(dec.Embedding.Arena(), want.Embedding.Arena()) {
		t.Error("version-4 twin of the fixture decodes a different arena")
	}
}

// TestANNStageFingerprintPinned: the ANN stage's cache key is the
// index fingerprint alone, unchanged from when the stage also had a
// quantize option. The constant changed on purpose with index.bin
// format version 3 (float32 vectors): the fingerprint domain carries
// the format version, so no version-2 entry is ever looked up. It
// changed again with bundle format version 6: the fixture's float64
// arena now loads rounded to float32, and the key hashes the embedding
// content it indexes. It changed once more with index.bin format
// version 4 (2-byte link ids), only because the domain carries the
// format version. A cold run then a warm run over the same stage hit
// the same entry.
func TestANNStageFingerprintPinned(t *testing.T) {
	res, err := LoadBundle(v5QuantFixture)
	if err != nil {
		t.Fatal(err)
	}
	stage := &ANNStage{Embedding: res.Embedding, Opts: ann.Options{Seed: 1}, Cache: NewCache(t.TempDir())}
	const want = "04b88886247cd44cadde73e4396cdb71991122a8e431a99c15163e3e0a942d34"
	if fp := stage.Fingerprint(); fp != want {
		t.Errorf("fingerprint = %s, want %s", fp, want)
	}
	cold, cached, err := stage.Run()
	if err != nil || cached {
		t.Fatalf("cold run: cached=%v err=%v", cached, err)
	}
	warm, cached, err := stage.Run()
	if err != nil || !cached {
		t.Fatalf("warm run: cached=%v err=%v", cached, err)
	}
	if cold.Quantized() || warm.Quantized() {
		t.Error("ANN stage returned a quantized index")
	}
	if !bytes.Equal(cold.Encode(), warm.Encode()) {
		t.Error("warm index differs from the cold build")
	}
}

// FuzzQuantSection: whatever an id 7 section holds, the fixture with
// that section in its place decodes without error to the embedding of
// the fixture's re-encode — the section is never parsed.
func FuzzQuantSection(f *testing.F) {
	data := readFixtureBin(f)
	secs, _, err := bundleSections(data)
	if err != nil {
		f.Fatal(err)
	}
	want, err := decodeBundleV4(data)
	if err != nil {
		f.Fatal(err)
	}
	valid := secs[secRetiredQuant]
	if !bytes.Equal(withSection7(f, valid), data) {
		f.Fatal("re-assembling the fixture with its own id 7 section changed its bytes")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	// NaN scale: shape 1x0 with one bad scale word.
	bad := make([]byte, 16)
	binary.LittleEndian.PutUint32(bad[4:], 1)
	binary.LittleEndian.PutUint64(bad[8:], math.Float64bits(math.NaN()))
	f.Add(bad)
	f.Add([]byte("not a quant section"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		dec, err := decodeBundleV4(withSection7(t, payload))
		if err != nil {
			t.Fatalf("bundle with a %d-byte id 7 section rejected: %v", len(payload), err)
		}
		if !reflect.DeepEqual(dec.Embedding.Arena(), want.Embedding.Arena()) {
			t.Fatal("id 7 payload changed the decoded arena")
		}
	})
}
