package embed

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func TestSymbolTableRoundTrip(t *testing.T) {
	names := []string{"zeta", "alpha", "t:0", "t:1", "", "müller", "alpha2"}
	st, err := NewSymbolTable(names)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(names))
	}
	for i, n := range names {
		if got := st.At(i); got != n {
			t.Errorf("At(%d) = %q, want %q", i, got, n)
		}
		id, ok := st.Lookup(n)
		if !ok || id != i {
			t.Errorf("Lookup(%q) = %d,%v, want %d,true", n, id, ok, i)
		}
	}
	for _, miss := range []string{"nope", "alph", "alpha3", "zzz"} {
		if _, ok := st.Lookup(miss); ok {
			t.Errorf("Lookup(%q) found a symbol", miss)
		}
	}
	got := st.AppendNames(nil)
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("AppendNames order broken at %d: %q != %q", i, got[i], names[i])
		}
	}
}

func TestSymbolTableLookupIsAllocFree(t *testing.T) {
	names := make([]string, 500)
	for i := range names {
		names[i] = fmt.Sprintf("token-%04d", i)
	}
	st, err := NewSymbolTable(names)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range []string{"token-0000", "token-0250", "token-0499", "missing"} {
			st.Lookup(n)
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup allocates %v times per run, want 0", allocs)
	}
}

// TestSymbolTableFromParts checks that the decode-side constructor
// accepts exactly what the encode side produces and rejects every
// structural corruption a hostile file could carry.
func TestSymbolTableFromParts(t *testing.T) {
	names := []string{"b", "a", "c"}
	src, err := NewSymbolTable(names)
	if err != nil {
		t.Fatal(err)
	}
	st, err := FromParts(src.Blob(), src.Offsets(), src.SortedIDs())
	if err != nil {
		t.Fatalf("FromParts rejects its own encode: %v", err)
	}
	if id, ok := st.Lookup("a"); !ok || id != 1 {
		t.Fatalf("Lookup(a) = %d,%v", id, ok)
	}

	bad := []struct {
		name string
		blob []byte
		offs []uint32
		perm []int32
	}{
		{"no-offsets", []byte("abc"), nil, nil},
		{"perm-length", []byte("abc"), []uint32{0, 1, 2, 3}, []int32{0, 1}},
		{"offsets-span", []byte("abc"), []uint32{0, 1, 2}, []int32{0, 1}},
		{"offsets-decrease", []byte("abc"), []uint32{0, 2, 1, 3}, []int32{0, 1, 2}},
		{"perm-out-of-range", []byte("abc"), []uint32{0, 1, 2, 3}, []int32{0, 1, 7}},
		{"perm-dup", []byte("abc"), []uint32{0, 1, 2, 3}, []int32{0, 1, 1}},
		{"perm-unsorted", []byte("abc"), []uint32{0, 1, 2, 3}, []int32{2, 1, 0}},
	}
	for _, tc := range bad {
		if _, err := FromParts(tc.blob, tc.offs, tc.perm); err == nil {
			t.Errorf("FromParts accepted corrupt input %s", tc.name)
		}
	}
}

// TestEmbeddingLookupMatchesMap cross-checks the binary-search path
// against a reference map over a randomized vocabulary; each vector
// reads back as NewEmbedding stored it, rounded to float32.
func TestEmbeddingLookupMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, dim := 300, 4
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%c%d:%d", 'a'+rng.Intn(26), rng.Intn(1000), i)
	}
	m := matrix.NewDense(n, dim)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	e := NewEmbedding(names, m)
	ref := make(map[string]int, n)
	for i, nm := range names {
		ref[nm] = i
	}
	for nm, want := range ref {
		v, ok := e.Vector(nm)
		if !ok {
			t.Fatalf("Vector(%q) missing", nm)
		}
		for j, x := range v {
			if w := float64(float32(m.At(want, j))); x != w {
				t.Fatalf("Vector(%q)[%d] = %v, want %v", nm, j, x, w)
			}
		}
	}
	if e.Has("definitely-not-present") {
		t.Error("Has() found a missing name")
	}
}
