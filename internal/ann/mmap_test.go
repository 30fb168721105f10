package ann

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/durable"
)

// countMappings returns how many /proc/self/maps entries reference
// substr (an index directory path). Skips the test off linux.
func countMappings(t *testing.T, substr string) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps on this platform: %v", err)
	}
	return strings.Count(string(data), substr)
}

// loadBoth saves ix to a fresh directory and loads it twice: once
// read, once mapped.
func loadBoth(t *testing.T, ix *Index) (dir string, read, mapped *Index) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "index")
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	read, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err = LoadOpts(dir, LoadOptions{MMap: true, Warn: func(msg string) { t.Errorf("unexpected warning: %s", msg) }})
	if err != nil {
		t.Fatal(err)
	}
	if read.Mapped() || !mapped.Mapped() {
		t.Fatalf("Mapped() = %v for the read load and %v for the mapped one, want false and true", read.Mapped(), mapped.Mapped())
	}
	return dir, read, mapped
}

// answers runs every query kind against ix and collects the results in
// a fixed order, for bit-exact comparison between two indexes.
func answers(t *testing.T, ix *Index, brute bool) [][]Result {
	t.Helper()
	var out [][]Result
	add := func(r []Result, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	names := ix.Names()
	for i := 0; i < ix.Len(); i += 7 {
		q := append([]float64(nil), ix.vec(int32((i+3)%ix.Len()))...)
		q[0] += 0.25
		add(ix.SearchVector(q, 5, 0))
		add(ix.SearchName(names[i], 5, 16))
		if brute {
			add(ix.BruteForceVector(q, 5))
			add(ix.BruteForceName(names[i], 5))
		}
	}
	return out
}

// TestMappedEqualsRead: a mapped index answers every query kind
// bit-identically to a read one, under both metrics and after
// Quantize(nil); Unmap drops the mapping and is idempotent.
func TestMappedEqualsRead(t *testing.T) {
	if !durable.MapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	for _, metric := range []Metric{MetricCosine, MetricDot} {
		names, vecs := randomCollection(300, 12, 21)
		built, err := BuildVectors(names, vecs, Options{M: 8, EfConstruction: 60, Seed: 21, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		dir, read, mapped := loadBoth(t, built)
		if got := countMappings(t, dir); got != 1 {
			t.Fatalf("%s: %d mappings of the index, want 1", metric, got)
		}
		if !reflect.DeepEqual(answers(t, mapped, true), answers(t, read, true)) {
			t.Errorf("%s: mapped index answers differ from the read one", metric)
		}
		for _, ix := range []*Index{read, mapped} {
			if err := ix.Quantize(nil); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(answers(t, mapped, false), answers(t, read, false)) {
			t.Errorf("%s: quantized mapped index answers differ from the quantized read one", metric)
		}
		for i := 0; i < 2; i++ {
			if err := mapped.Unmap(); err != nil {
				t.Fatalf("%s: Unmap #%d: %v", metric, i+1, err)
			}
		}
		if got := countMappings(t, dir); got != 0 {
			t.Errorf("%s: %d mappings after Unmap, want 0", metric, got)
		}
		if err := read.Unmap(); err != nil {
			t.Errorf("%s: Unmap of a read index: %v", metric, err)
		}
	}
}

// TestMappedLoadRejectsCorruption: a corrupt index.bin fails a mapped
// load with exactly the error a read load gives — the manifest's
// SHA-256 check for a flipped byte, Decode's named error for a
// structurally hostile file resealed with a matching manifest — and
// leaves no mapping behind.
func TestMappedLoadRejectsCorruption(t *testing.T) {
	if !durable.MapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir := filepath.Join(t.TempDir(), "index")
	path := filepath.Join(dir, IndexFileName)
	reseal := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := &durable.Manifest{FormatVersion: FormatVersion}
		m.Add(IndexFileName, data)
		if err := durable.WriteManifest(durable.OS(), dir, m); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, want error) {
		t.Helper()
		_, readErr := Load(dir)
		_, mapErr := LoadOpts(dir, LoadOptions{MMap: true})
		if readErr == nil || mapErr == nil {
			t.Fatalf("%s: read load err = %v, mapped load err = %v; want both to fail", name, readErr, mapErr)
		}
		if mapErr.Error() != readErr.Error() {
			t.Errorf("%s: mapped load fails with %q, read load with %q", name, mapErr, readErr)
		}
		if want != nil && !errors.Is(mapErr, want) {
			t.Errorf("%s: mapped load err = %v, want %v", name, mapErr, want)
		}
		if got := countMappings(t, dir); got != 0 {
			t.Errorf("%s: %d mappings left after a failed load, want 0", name, got)
		}
	}

	lying := lyingIndexes(t)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range lying {
		reseal(c.data)
		check(c.name, ErrCorrupt)
	}
	valid, _ := paddedIndex(t)
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[len(indexMagic)] = 99
	reseal(wrongVersion)
	check("version 99", ErrVersion)

	// A flip the manifest was not resealed over: the SHA-256 check
	// refuses it before Decode sees the bytes.
	reseal(valid)
	ok, err := LoadOpts(dir, LoadOptions{MMap: true})
	if err != nil || !ok.Mapped() {
		t.Fatalf("mapped load of the valid index: err = %v, want a mapped index (the leak checks above are vacuous otherwise)", err)
	}
	_ = ok.Unmap()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xFF
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	check("flipped vector byte", nil)
}
