package ann

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/durable"
)

func testIndex(t testing.TB, n, dim int, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, n)
	vecs := make([][]float64, n)
	for i := range vecs {
		names[i] = fmt.Sprintf("e%04d", i)
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	ix, err := BuildVectors(names, vecs, Options{M: 6, EfConstruction: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ix := testIndex(t, 80, 8, 1)
	data := ix.Encode()
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), data) {
		t.Fatal("re-encoded bytes differ from the original")
	}
	q := make([]float64, 8)
	q[0] = 1
	want, err := ix.SearchVector(q, 5, 32)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.SearchVector(q, 5, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decoded index answers differently: got %+v, want %+v", got[i], want[i])
		}
	}
}

// headerLayout reads the body geometry out of an index.bin header.
func headerLayout(data []byte) layout {
	u := func(off int) int64 { return int64(binary.LittleEndian.Uint32(data[off:])) }
	return layout{n: u(40), pairs: u(52), links: u(56), blobLen: u(60)}
}

// paddedIndex returns an encoded index whose vectors are preceded by
// at least one padding byte, and the offset of the first one.
func paddedIndex(t testing.TB) ([]byte, int64) {
	t.Helper()
	for n := 20; n < 40; n++ {
		data := testIndex(t, n, 4, 8).Encode()
		if lay := headerLayout(data); lay.padOff() < lay.vecOff() {
			return data, lay.padOff()
		}
	}
	t.Fatal("no fixture size between 20 and 40 nodes needs padding")
	return nil, 0
}

type lyingIndex struct {
	name string
	data []byte
}

// lyingIndexes derives structurally hostile variants of a valid
// index.bin: nonzero padding, and header counts that disagree with the
// body — including a pair that lies consistently enough to keep the
// total length right, so only the CSR validation can catch it.
func lyingIndexes(t testing.TB) []lyingIndex {
	t.Helper()
	valid, pad := paddedIndex(t)
	var out []lyingIndex
	mutate := func(name string, f func(b []byte)) {
		b := append([]byte(nil), valid...)
		f(b)
		out = append(out, lyingIndex{name, b})
	}
	mutate("nonzero padding", func(b []byte) { b[pad] = 1 })
	add := func(b []byte, off int, d int32) {
		binary.LittleEndian.PutUint32(b[off:], uint32(int32(binary.LittleEndian.Uint32(b[off:]))+d))
	}
	for _, f := range []struct {
		name string
		off  int
	}{{"P", 52}, {"L", 56}, {"blobLen", 60}, {"n", 40}} {
		mutate(f.name+"+1", func(b []byte) { add(b, f.off, 1) })
		mutate(f.name+"-1", func(b []byte) { add(b, f.off, -1) })
	}
	mutate("P+1 L-1", func(b []byte) { add(b, 52, 1); add(b, 56, -1) })
	mutate("P-1 L+1", func(b []byte) { add(b, 52, -1); add(b, 56, 1) })
	// Offsets that overshoot the array end and come back down later:
	// the span must be refused before it is sliced.
	lay := headerLayout(valid)
	mutate("first overshoots P", func(b []byte) {
		binary.LittleEndian.PutUint32(b[lay.firstOff()+4:], uint32(lay.pairs+1))
	})
	mutate("loff overshoots L", func(b []byte) {
		binary.LittleEndian.PutUint32(b[lay.loffOff()+4:], uint32(lay.links+4))
	})
	return out
}

func TestDecodeRejectsLyingIndexes(t *testing.T) {
	for _, c := range lyingIndexes(t) {
		if _, err := Decode(c.data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", c.name, err)
		}
	}
}

// TestDecodeAllocs: Decode builds views instead of per-node and
// per-name objects, so it allocates the same number of times at 200
// nodes as at 5000, and the vectors alias an 8-aligned input buffer.
func TestDecodeAllocs(t *testing.T) {
	if !durable.HostLittleEndian {
		t.Skip("zero-copy views need a little-endian host")
	}
	allocs := func(n int) float64 {
		data := testIndex(t, n, 4, 9).Encode()
		if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
			t.Fatal("Encode returned a buffer that is not 8-aligned")
		}
		ix, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if want := &data[len(data)-8*len(ix.vecs)]; unsafe.Pointer(unsafe.SliceData(ix.vecs)) != unsafe.Pointer(want) {
			t.Fatalf("n=%d: decoded vectors are a copy, not a view of the input", n)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(5000)
	if small != large {
		t.Fatalf("Decode allocates %v times at n=200 but %v times at n=5000", small, large)
	}
	t.Logf("Decode: %v allocations per call", small)
}

// TestDecodeMisalignedBuffer: a buffer starting one byte past an
// aligned address cannot be viewed in place; Decode falls back to
// element-wise copies and must answer every query identically.
func TestDecodeMisalignedBuffer(t *testing.T) {
	data := testIndex(t, 120, 8, 10).Encode()
	shifted := make([]byte, len(data)+1)[1:]
	copy(shifted, data)
	want, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), data) {
		t.Fatal("misaligned decode does not re-encode byte-exactly")
	}
	rng := rand.New(rand.NewSource(10))
	names := want.Names()
	check := func(what string, a, b []Result, errA, errB error) {
		t.Helper()
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", what, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: aligned %+v, misaligned %+v", what, a, b)
		}
	}
	for i := 0; i < 20; i++ {
		q := make([]float64, want.Dim())
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		a, errA := want.SearchVector(q, 5, 0)
		b, errB := got.SearchVector(q, 5, 0)
		check("SearchVector", a, b, errA, errB)
		a, errA = want.BruteForceVector(q, 5)
		b, errB = got.BruteForceVector(q, 5)
		check("BruteForceVector", a, b, errA, errB)
		name := names[rng.Intn(len(names))]
		a, errA = want.SearchName(name, 5, 0)
		b, errB = got.SearchName(name, 5, 0)
		check("SearchName", a, b, errA, errB)
		a, errA = want.BruteForceName(name, 5)
		b, errB = got.BruteForceName(name, 5)
		check("BruteForceName", a, b, errA, errB)
	}
}

// TestVersion1IsRebuiltNotRead: testdata/index-v1 was saved by the last
// version-1 encoder. There is no version-1 reader; Decode and Load both
// refuse it with ErrVersion and say how to rebuild it.
func TestVersion1IsRebuiltNotRead(t *testing.T) {
	src := filepath.Join("testdata", "index-v1")
	dir := filepath.Join(t.TempDir(), "index")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var data []byte
	for _, name := range []string{IndexFileName, durable.ManifestName} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if name == IndexFileName {
			data = b
		}
	}
	_, decErr := Decode(data)
	_, loadErr := Load(dir)
	for what, err := range map[string]error{"Decode": decErr, "Load": loadErr} {
		if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "leva embed -index") {
			t.Errorf("%s of a version-1 index: got %v, want ErrVersion naming `leva embed -index`", what, err)
		}
	}
}

// isNamedError reports whether err wraps one of the codec's named
// errors — the contract for every decode failure.
func isNamedError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt)
}

// TestDecodeTruncation: every proper prefix must be rejected with a
// named error (the vector block length check makes any truncation
// detectable), never a panic.
func TestDecodeTruncation(t *testing.T) {
	data := testIndex(t, 40, 6, 2).Encode()
	for cut := 0; cut < len(data); cut += 13 {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", cut, len(data))
		} else if !isNamedError(err) {
			t.Fatalf("prefix of %d bytes: unnamed error %v", cut, err)
		}
	}
}

// TestDecodeBitFlips walks single-byte corruptions across the file.
// Some flips are structurally undetectable at the codec layer (vector
// payload bits — the manifest catches those at Load time); the codec
// contract is: no panic, and any rejection uses a named error.
func TestDecodeBitFlips(t *testing.T) {
	data := testIndex(t, 40, 6, 3).Encode()
	for off := 0; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		ix, err := Decode(mut)
		if err != nil {
			if !isNamedError(err) {
				t.Fatalf("flip at %d: unnamed error %v", off, err)
			}
			continue
		}
		// Accepted mutations must still round-trip and answer queries.
		if !bytes.Equal(ix.Encode(), mut) {
			t.Fatalf("flip at %d: accepted but does not round-trip", off)
		}
		if _, err := ix.SearchVector(make([]float64, ix.Dim()), 3, 8); err != nil {
			t.Fatalf("flip at %d: accepted but unsearchable: %v", off, err)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ix := testIndex(t, 60, 8, 4)
	dir := filepath.Join(t.TempDir(), "index")
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loaded.Encode(), ix.Encode()) {
		t.Fatal("loaded index differs from the saved one")
	}
	// Replacing save: publish a different index over the same dir.
	ix2 := testIndex(t, 60, 8, 5)
	if err := ix2.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loaded2.Encode(), ix2.Encode()) {
		t.Fatal("replacing save did not publish the new index")
	}
}

// TestLoadRejectsCorruption: a flipped byte in a published index must
// be refused with an error naming index.bin (the manifest check), even
// when the flip lands in vector payload the codec itself cannot vet.
func TestLoadRejectsCorruption(t *testing.T) {
	ix := testIndex(t, 30, 4, 6)
	dir := filepath.Join(t.TempDir(), "index")
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, IndexFileName)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, len(orig) / 2, len(orig) - 1} {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(dir)
		if err == nil {
			t.Fatalf("index with byte %d flipped loaded cleanly", off)
		}
		if !strings.Contains(err.Error(), IndexFileName) && !strings.Contains(err.Error(), durable.ManifestName) {
			t.Errorf("corruption error names neither %s nor the manifest: %v", IndexFileName, err)
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err != nil {
		t.Fatalf("restored index fails to load: %v", err)
	}
}

// TestLoadRequiresManifest: index artifacts have never existed without
// a manifest, so a missing MANIFEST.json is a hard error.
func TestLoadRequiresManifest(t *testing.T) {
	ix := testIndex(t, 20, 4, 7)
	dir := filepath.Join(t.TempDir(), "index")
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, durable.ManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, durable.ErrNoManifest) {
		t.Fatalf("manifest-less index: got %v, want ErrNoManifest", err)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("loading a nonexistent directory succeeded")
	}
}
