package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ann"
)

// v5QuantFixture is the one committed version-5 bundle, kept as the
// fixture every reader must refuse. It still carries the int8 quant
// section (id 7) older builds wrote under `leva embed -quantize`:
// 489 entities x 4 dims, from `levagen -dataset student -scale 0.02
// -seed 3` and `leva embed -dim 4 -seed 3 -method mf -no-cache
// -quantize`.
const v5QuantFixture = "testdata/v5-quant-dim4"

// dim4Fixture is v5QuantFixture as an earlier build's `leva bundle
// convert` rewrote it at version 6: the same deployment, its arena
// rounded to float32 once, sections 1 through 6 only.
const dim4Fixture = "testdata/v6-dim4"

// secRetiredQuant is the id the removed quant section was written
// under. No reader gives it a meaning.
const secRetiredQuant = 7

func readFixtureBin(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dim4Fixture, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// retiredQuantPayload returns v5QuantFixture's id 7 section, read past
// the version gate that refuses the file.
func retiredQuantPayload(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(v5QuantFixture, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[len(bundleMagic):], BundleFormatVersion)
	secs, err := bundleSections(data)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := secs[secRetiredQuant]
	if !ok {
		t.Fatalf("%s has no id %d section", v5QuantFixture, secRetiredQuant)
	}
	return payload
}

// sectionIDs lists the section ids of a bundle.bin in table order.
func sectionIDs(t testing.TB, data []byte) []int {
	t.Helper()
	if _, err := bundleSections(data); err != nil {
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
// standing in for the sections of those ids; an id the file does not
// have is added after its own sections, in ascending order. Every other
// section, and the order of the existing section table, is unchanged.
func withSections(t testing.TB, data []byte, replace map[int][]byte) []byte {
	t.Helper()
	secs, err := bundleSections(data)
	if err != nil {
		t.Fatal(err)
	}
	ids := sectionIDs(t, data)
	var added []int
	for id := range replace {
		if _, ok := secs[id]; !ok {
			added = append(added, id)
		}
	}
	slices.Sort(added)
	ids = append(ids, added...)
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
	h = binary.LittleEndian.AppendUint32(h, BundleFormatVersion)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(w.table)))
	for _, e := range w.table {
		h = binary.LittleEndian.AppendUint32(h, uint32(e.id))
		h = binary.LittleEndian.AppendUint32(h, 0)
		h = binary.LittleEndian.AppendUint64(h, e.off)
		h = binary.LittleEndian.AppendUint64(h, e.length)
	}
	return w.buf
}

// withSection7 re-assembles dim4Fixture's bundle.bin with payload as an
// added id 7 section, every other section unchanged.
func withSection7(t testing.TB, payload []byte) []byte {
	t.Helper()
	return withSections(t, readFixtureBin(t), map[int][]byte{secRetiredQuant: payload})
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

// TestANNStageFingerprintPinned: the ANN stage's cache key is the
// index fingerprint alone, unchanged from when the stage also had a
// quantize option. The constant changed on purpose with index.bin
// format version 3 (float32 vectors): the fingerprint domain carries
// the format version, so no version-2 entry is ever looked up. It
// changed again with bundle format version 6: the fixture's float64
// arena was rounded to float32 (dim4Fixture holds the rounded values),
// and the key hashes the embedding content it indexes. It changed once more with index.bin format
// version 4 (2-byte link ids), only because the domain carries the
// format version. A cold run then a warm run over the same stage hit
// the same entry.
func TestANNStageFingerprintPinned(t *testing.T) {
	res, err := LoadBundle(dim4Fixture)
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

// FuzzQuantSection keeps the rule that unknown section ids are
// ignored: whatever an id 7 section added to the version-6 dim4Fixture
// holds, the file decodes without error to the fixture's own arena —
// the section is never parsed. The first seed is the quant section an
// older build wrote for this deployment (v5QuantFixture's).
func FuzzQuantSection(f *testing.F) {
	data := readFixtureBin(f)
	want, err := decodeBundleV4(data)
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(withSections(f, data, nil), data) {
		f.Fatal("re-assembling the fixture changed its bytes")
	}
	valid := retiredQuantPayload(f)
	if ids := sectionIDs(f, withSection7(f, valid)); !reflect.DeepEqual(ids, []int{1, 2, 3, 4, 5, 6, secRetiredQuant}) {
		f.Fatalf("fixture with an added quant section has sections %v", ids)
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
