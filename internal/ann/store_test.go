package ann

import (
	"math"
	"testing"

	"repro/internal/embed"
	"repro/internal/matrix"
)

// TestStoredVectorsRoundedOnce: Build and BuildVectors store each input
// row as float32 of the row normalized in float64 — one rounding, no
// float32 arithmetic — and SearchVector scores stay within 1e-6 of the
// exact float64 cosine of the unrounded vectors. Build's input rows are
// the embedding's float32 arena, widened.
func TestStoredVectorsRoundedOnce(t *testing.T) {
	names, vecs := randomCollection(400, 24, 31)
	vecs[7] = make([]float64, 24) // a zero row stays zero
	fromVectors, err := BuildVectors(names, vecs, Options{M: 8, EfConstruction: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	emb := embed.NewEmbedding(names, matrix.FromRows(vecs))
	fromArena, err := Build(emb, Options{M: 8, EfConstruction: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	widened := make([][]float64, len(names))
	for i, n := range names {
		widened[i], _ = emb.Vector(n)
	}
	for what, tc := range map[string]struct {
		ix *Index
		in [][]float64
	}{"BuildVectors": {fromVectors, vecs}, "Build": {fromArena, widened}} {
		ix := tc.ix
		for i, v := range tc.in {
			unit := normalized(v)
			for j, got := range ix.vec(int32(i)) {
				if want := float32(unit[j]); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s: row %d component %d stored as %v, want float32(%v) = %v", what, i, j, got, unit[j], want)
				}
			}
		}
		q := make([]float64, 24)
		for j := range q {
			q[j] = math.Sin(float64(j + 1))
		}
		hits, err := ix.SearchVector(q, 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			if exact := cosine64(q, vecs[h.ID]); math.Abs(h.Score-exact) > 1e-6 {
				t.Errorf("%s: hit %d scores %v, exact float64 cosine %v", what, h.ID, h.Score, exact)
			}
		}
	}
}

func cosine64(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// TestDistPairMatchesWidenedDist: the stored-vs-stored distance the
// build uses is bit-identical to dist over the widened first row, and
// allocates nothing.
func TestDistPairMatchesWidenedDist(t *testing.T) {
	ix := testIndex(t, 60, 9, 12)
	for a := int32(0); a < 60; a += 5 {
		q := widen(nil, ix.vec(a))
		for b := int32(0); b < 60; b++ {
			if got, want := ix.distPair(a, b), ix.dist(q, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("distPair(%d, %d) = %v, dist(widen(vec(%d)), %d) = %v", a, b, got, a, b, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = ix.distPair(3, 4) }); allocs != 0 {
		t.Errorf("distPair allocates %v times per call, want 0", allocs)
	}
}
