package embed

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/textify"
)

// mfFixtureGraph builds a weighted refinement graph big enough that
// every parallel MF kernel (transition build, windowed powers, PMI,
// SVD, propagation) sees multiple shards.
func mfFixtureGraph() *graph.Graph {
	t := &textify.TokenizedTable{Table: "t", Attrs: []string{"id", "cat", "grp", "f"}}
	for i := 0; i < 300; i++ {
		t.Cells = append(t.Cells, [][]string{
			{fmt.Sprintf("id%d", i)},
			{fmt.Sprintf("cat%d", i%13)},
			{fmt.Sprintf("grp%d", i%5)},
			{"pad"},
		})
	}
	g, _ := graph.Build([]*textify.TokenizedTable{t}, graph.Options{})
	return g
}

// TestMFWorkersBitIdentical holds MF to its documented contract: the
// embedding is bit-identical at every worker count.
func TestMFWorkersBitIdentical(t *testing.T) {
	g := mfFixtureGraph()
	ref := MF(g, MFOptions{Dim: 24, Seed: 5, Workers: 1})
	for _, w := range []int{2, 3, 8} {
		got := MF(g, MFOptions{Dim: 24, Seed: 5, Workers: w})
		if got.Len() != ref.Len() || got.Dim != ref.Dim {
			t.Fatalf("workers=%d: shape %dx%d vs %dx%d", w, got.Len(), got.Dim, ref.Len(), ref.Dim)
		}
		for _, name := range ref.Names() {
			a, _ := ref.Vector(name)
			b, ok := got.Vector(name)
			if !ok {
				t.Fatalf("workers=%d: %q missing", w, name)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("workers=%d: %q[%d] = %v vs %v (must be bit-identical)", w, name, j, b[j], a[j])
				}
			}
		}
	}
}

// TestMFWorkersBitIdenticalNoPropagation covers the plain-SVD branch.
func TestMFWorkersBitIdenticalNoPropagation(t *testing.T) {
	g := mfFixtureGraph()
	ref := MF(g, MFOptions{Dim: 16, Seed: 7, NoSpectralPropagation: true, Workers: 1})
	got := MF(g, MFOptions{Dim: 16, Seed: 7, NoSpectralPropagation: true, Workers: 4})
	for _, name := range ref.Names() {
		a, _ := ref.Vector(name)
		b, _ := got.Vector(name)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%q[%d] differs across worker counts", name, j)
			}
		}
	}
}

// TestGloVeReproducible: two GloVe builds at Workers=1 with the same
// seed produce bit-identical arenas (the co-occurrence pairs reach the
// seeded shuffle in a fixed order, not map order).
func TestGloVeReproducible(t *testing.T) {
	g := mfFixtureGraph()
	opts := GloVeOptions{Dim: 8, WalkLength: 10, WalksPerNode: 2, Epochs: 2, Seed: 3, Workers: 1}
	ref, got := GloVe(g, opts).Arena(), GloVe(g, opts).Arena()
	if len(got) != len(ref) {
		t.Fatalf("arena length %d vs %d", len(got), len(ref))
	}
	for i := range ref {
		if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("arena[%d] = %v vs %v (must be bit-identical)", i, got[i], ref[i])
		}
	}
}
