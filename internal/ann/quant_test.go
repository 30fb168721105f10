package ann

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/embed"
	"repro/internal/matrix"
)

// randomCollection builds n clustered random vectors (clustered so
// nearest-neighbor structure is non-trivial).
func randomCollection(n, dim int, seed int64) ([]string, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 16
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64()
		}
	}
	names := make([]string, n)
	vecs := make([][]float64, n)
	for i := range vecs {
		c := centers[i%clusters]
		v := make([]float64, dim)
		for j := range v {
			v[j] = c[j] + 0.3*rng.NormFloat64()
		}
		names[i] = string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + "-" + itoa(i)
		vecs[i] = v
	}
	return names, vecs
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestQuantizedRecall asserts the tentpole accuracy bar: int8
// traversal with float64 re-rank keeps recall@10 >= 0.95 against the
// exact brute-force scan.
func TestQuantizedRecall(t *testing.T) {
	t.Run("cosine", func(t *testing.T) {
		names, vecs := randomCollection(2000, 32, 11)
		ix, err := BuildVectors(names, vecs, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Quantize(nil); err != nil {
			t.Fatal(err)
		}
		if !ix.Quantized() {
			t.Fatal("index not quantized after Quantize")
		}
		rng := rand.New(rand.NewSource(99))
		const k, queries = 10, 50
		hits, want := 0, 0
		for qi := 0; qi < queries; qi++ {
			q := make([]float64, 32)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			exact, err := ix.BruteForceVector(q, k)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := ix.SearchVector(q, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			truth := make(map[int]bool, k)
			for _, r := range exact {
				truth[r.ID] = true
			}
			for _, r := range approx {
				if truth[r.ID] {
					hits++
				}
			}
			want += len(exact)
		}
		recall := float64(hits) / float64(want)
		if recall < 0.95 {
			t.Fatalf("quantized recall@%d = %.3f, want >= 0.95", k, recall)
		}
		t.Logf("quantized recall@%d = %.3f over %d queries", k, recall, queries)
	})
}

// TestQuantizedDeterministic: quantized searches are as repeatable as
// float ones (integer kernels, candLess tie-breaks).
func TestQuantizedDeterministic(t *testing.T) {
	names, vecs := randomCollection(500, 16, 3)
	ix, err := BuildVectors(names, vecs, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Quantize(nil); err != nil {
		t.Fatal(err)
	}
	a, err := ix.SearchName(names[17], 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.SearchName(names[17], 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("quantized search not deterministic:\n%v\n%v", a, b)
	}
}

// TestQuantizedScoresExact: because the final beam is re-ranked in
// float64, returned scores are bit-identical to the float index's
// scores for the same hits.
func TestQuantizedScoresExact(t *testing.T) {
	names, vecs := randomCollection(800, 24, 5)
	float, err := BuildVectors(names, vecs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	quant, err := BuildVectors(names, vecs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := quant.Quantize(nil); err != nil {
		t.Fatal(err)
	}
	fr, err := float.SearchName(names[3], 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := quant.SearchName(names[3], 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	fscore := make(map[int]float64, len(fr))
	for _, r := range fr {
		fscore[r.ID] = r.Score
	}
	for _, r := range qr {
		if want, ok := fscore[r.ID]; ok && want != r.Score {
			t.Fatalf("hit %d: quantized score %v != float score %v", r.ID, r.Score, want)
		}
	}
}

// TestQuantizeDimGuard: dimensions past the int32-accumulator bound
// are refused instead of silently overflowing.
func TestQuantizeDimGuard(t *testing.T) {
	ix := &Index{dim: maxQuantDim + 1}
	if err := ix.Quantize(nil); err == nil {
		t.Fatal("Quantize accepted a dimension past the int32 accumulation bound")
	}
}

// TestQuantizeRefusesForeignArena: Quantize only ever quantizes the
// index's own vectors; an arena passed in is refused, not adopted, and
// the index stays on the float path.
func TestQuantizeRefusesForeignArena(t *testing.T) {
	names, vecs := randomCollection(50, 8, 9)
	ix, err := BuildVectors(names, vecs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := matrix.FromRows(vecs)
	if err := ix.Quantize(embed.Quantize(m.Rows, m.Cols, m.Data)); err == nil {
		t.Fatal("Quantize accepted an arena the index does not own")
	}
	if ix.Quantized() {
		t.Fatal("refused arena left the index quantized")
	}
}

// TestQuantizeAllocatesOnlyTheArena guards the reload path's memory:
// Quantize(nil) on an n = 5,000 index allocates the int8 arena, its
// float64 scales and one widened row, never a float64 copy of the
// float32 vectors (which would be 8·n·dim bytes more).
func TestQuantizeAllocatesOnlyTheArena(t *testing.T) {
	const n, dim = 5000, 16
	names, vecs := randomCollection(n, dim, 41)
	built, err := BuildVectors(names, vecs, Options{M: 4, EfConstruction: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Decode(built.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// The arena, the scales, one row, and slack for the QuantizedMatrix
	// header and allocator rounding of the two large slices (a page
	// each). A widened copy of the vectors is 640,000 bytes.
	const budget = n*dim + 8*n + 8*dim + 3*8192
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := ix.Quantize(nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("Quantize(nil) allocated %d bytes at n=%d dim=%d, want at most %d", got, n, dim, budget)
	} else {
		t.Logf("Quantize(nil) allocated %d bytes (budget %d)", got, budget)
	}
}
