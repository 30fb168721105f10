package matrix

import (
	"math/rand"
	"testing"
)

// randCSR builds a deterministic sparse matrix with roughly density*r*c
// entries.
func randCSR(r, c int, density float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var entries []COO
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				entries = append(entries, COO{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return NewCSR(r, c, entries)
}

func csrEqual(t *testing.T, name string, a, b *CSR) {
	t.Helper()
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.NumRows, a.NumCols, b.NumRows, b.NumCols)
	}
	if len(a.Vals) != len(b.Vals) {
		t.Fatalf("%s: nnz %d vs %d", name, len(a.Vals), len(b.Vals))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d vs %d", name, i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for i := range a.Vals {
		if a.ColIdx[i] != b.ColIdx[i] || a.Vals[i] != b.Vals[i] {
			t.Fatalf("%s: entry %d = (%d, %v) vs (%d, %v)",
				name, i, a.ColIdx[i], a.Vals[i], b.ColIdx[i], b.Vals[i])
		}
	}
}

func denseEqual(t *testing.T, name string, a, b *Dense) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			t.Fatalf("%s: element %d = %v vs %v (must be bit-identical)", name, i, v, b.Data[i])
		}
	}
}

// The worker-partitioned kernels promise bit-identical results at every
// worker count; these tests hold them to it.

func TestMulDenseWorkersBitIdentical(t *testing.T) {
	m := randCSR(83, 61, 0.1, 1)
	b := Gaussian(61, 17, rand.New(rand.NewSource(2)))
	want := m.MulDenseWorkers(b, 1)
	for _, w := range []int{2, 3, 8} {
		denseEqual(t, "MulDenseWorkers", want, m.MulDenseWorkers(b, w))
	}
}

func TestTMulDenseWorkersBitIdentical(t *testing.T) {
	m := randCSR(83, 61, 0.1, 3)
	b := Gaussian(83, 17, rand.New(rand.NewSource(4)))
	want := m.TMulDenseWorkers(b, 1)
	for _, w := range []int{2, 3, 8} {
		denseEqual(t, "TMulDenseWorkers", want, m.TMulDenseWorkers(b, w))
	}
}

func TestDenseMulWorkersBitIdentical(t *testing.T) {
	a := Gaussian(70, 31, rand.New(rand.NewSource(5)))
	b := Gaussian(31, 23, rand.New(rand.NewSource(6)))
	want := a.MulWorkers(b, 1)
	for _, w := range []int{2, 3, 8} {
		denseEqual(t, "MulWorkers", want, a.MulWorkers(b, w))
	}
}

func TestMulCSRPruneWorkersBitIdentical(t *testing.T) {
	a := randCSR(90, 90, 0.08, 7)
	b := randCSR(90, 90, 0.08, 8)
	want := MulCSRPrune(a, b, 5, 1e-9)
	for _, w := range []int{2, 3, 8} {
		csrEqual(t, "MulCSRPruneWorkers", want, MulCSRPruneWorkers(a, b, 5, 1e-9, w))
	}
}

func TestAddCSRWorkersBitIdentical(t *testing.T) {
	a := randCSR(90, 40, 0.1, 9)
	b := randCSR(90, 40, 0.1, 10)
	want := AddCSR(a, b)
	for _, w := range []int{2, 3, 8} {
		csrEqual(t, "AddCSRWorkers", want, AddCSRWorkers(a, b, w))
	}
}

func TestRandomizedSVDWorkersBitIdentical(t *testing.T) {
	m := randCSR(120, 120, 0.1, 11)
	want := RandomizedSVDWorkers(m, 8, 4, 2, rand.New(rand.NewSource(12)), 1)
	for _, w := range []int{2, 3} {
		got := RandomizedSVDWorkers(m, 8, 4, 2, rand.New(rand.NewSource(12)), w)
		denseEqual(t, "U", want.U, got.U)
		for i := range want.Sigma {
			if want.Sigma[i] != got.Sigma[i] {
				t.Fatalf("Sigma[%d] = %v vs %v", i, want.Sigma[i], got.Sigma[i])
			}
		}
	}
}

func TestChebyshevPropagateWorkersBitIdentical(t *testing.T) {
	// A symmetric adjacency, as the filter requires.
	base := randCSR(60, 60, 0.1, 13)
	var entries []COO
	for i := 0; i < base.NumRows; i++ {
		for p := base.RowPtr[i]; p < base.RowPtr[i+1]; p++ {
			v := base.Vals[p]
			if v < 0 {
				v = -v
			}
			entries = append(entries,
				COO{Row: i, Col: int(base.ColIdx[p]), Val: v},
				COO{Row: int(base.ColIdx[p]), Col: i, Val: v})
		}
	}
	adj := NewCSR(60, 60, entries)
	emb := Gaussian(60, 12, rand.New(rand.NewSource(14)))
	// The filter works in place, so every run gets its own copy.
	want := ChebyshevPropagateWorkers(adj, emb.Clone(), 10, 0.2, 0.5, 1)
	for _, w := range []int{2, 3} {
		denseEqual(t, "ChebyshevPropagateWorkers", want, ChebyshevPropagateWorkers(adj, emb.Clone(), 10, 0.2, 0.5, w))
	}
}

func TestShardedCSRSingleRowAndEmpty(t *testing.T) {
	empty := ShardedCSR(0, 5, 4, func(lo, hi int, w *RowWriter) {
		t.Fatal("fill must not run for an empty matrix")
	})
	if empty.NumRows != 0 || empty.NNZ() != 0 || len(empty.RowPtr) != 1 {
		t.Fatalf("empty ShardedCSR malformed: %+v", empty)
	}
	one := ShardedCSR(1, 3, 4, func(lo, hi int, w *RowWriter) {
		w.Append(2, 1.5)
		w.EndRow()
	})
	if one.At(0, 2) != 1.5 || one.NNZ() != 1 {
		t.Fatalf("single-row ShardedCSR malformed: %+v", one)
	}
}
