package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matricesClose(t *testing.T, a, b *Dense, tol float64, what string) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if !approxEqual(v, b.Data[i], tol) {
			t.Fatalf("%s: element %d: %v vs %v", what, i, v, b.Data[i])
		}
	}
}

func TestDenseMulVariants(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})  // 3x2
	b := FromRows([][]float64{{7, 8, 9}, {10, 11, 12}}) // 2x3

	ab := a.MulWorkers(b, 1)
	want := FromRows([][]float64{{27, 30, 33}, {61, 68, 75}, {95, 106, 117}})
	matricesClose(t, ab, want, 1e-12, "Mul")

	// MulT: a * aᵀ vs explicit transpose.
	matricesClose(t, a.MulT(a), a.MulWorkers(a.T(), 1), 1e-12, "MulT")
	// TMul: aᵀ * a.
	matricesClose(t, a.TMul(a), a.T().MulWorkers(a, 1), 1e-12, "TMul")
}

func TestDenseAddSubScaleNorm(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{1, 1}, {1, 1}})
	if got := a.Clone().Add(b).At(1, 1); got != 5 {
		t.Errorf("Add = %v", got)
	}
	if got := a.Clone().Sub(b).At(0, 0); got != 0 {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Clone().Scale(2).At(1, 0); got != 6 {
		t.Errorf("Scale = %v", got)
	}
	if got := b.Norm(); got != 2 {
		t.Errorf("Norm = %v", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot")
	}
	if L1Distance([]float64{1, 5}, []float64{4, 1}) != 7 {
		t.Error("L1Distance")
	}
	if L2Norm([]float64{3, 4}) != 5 {
		t.Error("L2Norm")
	}
	if s := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); !approxEqual(s, 1, 1e-12) {
		t.Errorf("cosine identical = %v", s)
	}
	if s := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); !approxEqual(s, 0, 1e-12) {
		t.Errorf("cosine orthogonal = %v", s)
	}
	if CosineSimilarity([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Error("cosine zero vector")
	}
}

func TestQROrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Gaussian(40, 8, rng)
	q := QR(a)
	qtq := q.TMul(q)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !approxEqual(qtq.At(i, j), want, 1e-8) {
				t.Fatalf("QᵀQ[%d,%d] = %v", i, j, qtq.At(i, j))
			}
		}
	}
	// Range preserved: QQᵀa ≈ a.
	proj := q.MulWorkers(q.TMul(a), 1)
	matricesClose(t, proj, a, 1e-8, "range")
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: second orthogonalizes to zero.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	q := QR(a)
	for i := 0; i < 3; i++ {
		if q.At(i, 1) != 0 {
			t.Fatalf("dependent column not zeroed: %v", q.At(i, 1))
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 10
	m := Gaussian(n, n, rng)
	sym := m.Clone().Add(m.T()) // symmetric
	vals, v := SymEigen(sym)

	// Descending order.
	for i := 1; i < n; i++ {
		if vals[i] > vals[i-1]+1e-9 {
			t.Fatalf("eigenvalues not descending at %d", i)
		}
	}
	// A v_j = λ_j v_j.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			av := 0.0
			for k := 0; k < n; k++ {
				av += sym.At(i, k) * v.At(k, j)
			}
			if !approxEqual(av, vals[j]*v.At(i, j), 1e-7) {
				t.Fatalf("eigenpair %d fails at row %d: %v vs %v", j, i, av, vals[j]*v.At(i, j))
			}
		}
	}
}

func TestCSRBasics(t *testing.T) {
	m := NewCSR(3, 4, []COO{
		{Row: 0, Col: 1, Val: 2},
		{Row: 2, Col: 3, Val: 5},
		{Row: 2, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 3}, // duplicate sums
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(0, 1) != 5 || m.At(2, 0) != 1 || m.At(1, 1) != 0 {
		t.Errorf("At values wrong: %v %v %v", m.At(0, 1), m.At(2, 0), m.At(1, 1))
	}
	sums := m.RowSums()
	if sums[0] != 5 || sums[1] != 0 || sums[2] != 6 {
		t.Errorf("RowSums = %v", sums)
	}
}

func TestCSRDenseAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var coos []COO
	for k := 0; k < 60; k++ {
		coos = append(coos, COO{Row: rng.Intn(8), Col: rng.Intn(9), Val: rng.NormFloat64()})
	}
	s := NewCSR(8, 9, coos)
	d := s.Dense()
	b := Gaussian(9, 5, rng)
	matricesClose(t, s.MulDenseWorkers(b, 1), d.MulWorkers(b, 1), 1e-10, "MulDense")
	c := Gaussian(8, 5, rng)
	matricesClose(t, s.TMulDenseWorkers(c, 1), d.T().MulWorkers(c, 1), 1e-10, "TMulDense")

	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	mv := s.MulVec(x)
	want := d.MulWorkers(FromRows(columnize(x)), 1)
	for i := range mv {
		if !approxEqual(mv[i], want.At(i, 0), 1e-10) {
			t.Fatalf("MulVec[%d]", i)
		}
	}
}

func columnize(x []float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, v := range x {
		out[i] = []float64{v}
	}
	return out
}

func TestMulCSRPruneMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ca, cb []COO
	for k := 0; k < 40; k++ {
		ca = append(ca, COO{Row: rng.Intn(6), Col: rng.Intn(7), Val: rng.Float64()})
		cb = append(cb, COO{Row: rng.Intn(7), Col: rng.Intn(5), Val: rng.Float64()})
	}
	a, b := NewCSR(6, 7, ca), NewCSR(7, 5, cb)
	prod := MulCSRPrune(a, b, 0, 0)
	matricesClose(t, prod.Dense(), a.Dense().MulWorkers(b.Dense(), 1), 1e-10, "MulCSRPrune unpruned")

	// topK bounds row fanout.
	pruned := MulCSRPrune(a, b, 2, 0)
	for i := 0; i < pruned.NumRows; i++ {
		if pruned.RowPtr[i+1]-pruned.RowPtr[i] > 2 {
			t.Fatalf("row %d kept more than topK entries", i)
		}
	}
}

func TestAddCSR(t *testing.T) {
	a := NewCSR(2, 3, []COO{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 2, Val: 2}})
	b := NewCSR(2, 3, []COO{{Row: 0, Col: 0, Val: 3}, {Row: 0, Col: 1, Val: 4}})
	sum := AddCSR(a, b)
	want := a.Dense().Add(b.Dense())
	matricesClose(t, sum.Dense(), want, 1e-12, "AddCSR")
}

func TestRandomizedSVDRecoversLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Rank-3 matrix: U0 * V0ᵀ with 60x3 and 3x50 factors.
	u0 := Gaussian(60, 3, rng)
	v0 := Gaussian(50, 3, rng)
	dense := u0.MulT(v0)
	var coos []COO
	for i := 0; i < 60; i++ {
		for j := 0; j < 50; j++ {
			coos = append(coos, COO{Row: i, Col: j, Val: dense.At(i, j)})
		}
	}
	m := NewCSR(60, 50, coos)
	res := RandomizedSVDWorkers(m, 3, 8, 2, rng, 1)

	// Reconstruction U Σ Vᵀ ≈ M, with V = Mᵀ·U·Σ⁻¹ (the SVD returns
	// no V).
	v := dense.T().MulWorkers(res.U, 1)
	us := res.U.Clone()
	for j := 0; j < 3; j++ {
		for i := 0; i < us.Rows; i++ {
			us.Data[i*3+j] *= res.Sigma[j]
		}
		for i := 0; i < v.Rows; i++ {
			v.Data[i*3+j] /= res.Sigma[j]
		}
	}
	rec := us.MulT(v)
	diff := rec.Clone().Sub(dense)
	if rel := diff.Norm() / dense.Norm(); rel > 1e-6 {
		t.Fatalf("rank-3 reconstruction relative error %v", rel)
	}
	// EmbeddingFromSVD shape.
	e := EmbeddingFromSVD(res)
	if e.Rows != 60 || e.Cols != 3 {
		t.Fatalf("embedding shape %dx%d", e.Rows, e.Cols)
	}
}

func TestPCA(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Points stretched along (1, 1, 0) direction.
	x := NewDense(300, 3)
	for i := 0; i < 300; i++ {
		s := rng.NormFloat64() * 10
		x.Set(i, 0, s+rng.NormFloat64()*0.1)
		x.Set(i, 1, s+rng.NormFloat64()*0.1)
		x.Set(i, 2, rng.NormFloat64()*0.1)
	}
	p := FitPCA(x, 1)
	proj := p.Transform(x)
	if proj.Cols != 1 {
		t.Fatalf("projection cols = %d", proj.Cols)
	}
	// Projected variance must capture almost all original variance.
	var varProj, varOrig float64
	for i := 0; i < 300; i++ {
		varProj += proj.At(i, 0) * proj.At(i, 0)
		for j := 0; j < 3; j++ {
			v := x.At(i, j)
			varOrig += v * v
		}
	}
	if varProj < 0.95*varOrig {
		t.Errorf("PCA captured %v of %v variance", varProj, varOrig)
	}
	// TransformVec agrees with Transform.
	row0 := p.TransformVec(x.Row(0))
	if !approxEqual(row0[0], proj.At(0, 0), 1e-10) {
		t.Error("TransformVec mismatch")
	}
}

func TestBesselI(t *testing.T) {
	// Reference values (Abramowitz & Stegun).
	cases := []struct {
		n    int
		x    float64
		want float64
	}{
		{0, 0.5, 1.0634833707413236},
		{1, 0.5, 0.2578943053908963},
		{2, 0.5, 0.031906149177738},
		{0, 2.0, 2.279585302336067},
		{3, 1.0, 0.022168424924331902},
	}
	for _, c := range cases {
		if got := BesselI(c.n, c.x); !approxEqual(got, c.want, 1e-10) {
			t.Errorf("I_%d(%v) = %v, want %v", c.n, c.x, got, c.want)
		}
	}
	if BesselI(-2, 0.5) != BesselI(2, 0.5) {
		t.Error("negative order not mirrored")
	}
}

func TestChebyshevPropagateSmoothsNeighbors(t *testing.T) {
	// Path graph 0-1-2 ... propagation must pull neighbors together.
	adj := NewCSR(3, 3, []COO{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 1, Col: 2, Val: 1}, {Row: 2, Col: 1, Val: 1},
	})
	emb := FromRows([][]float64{{1, 0}, {0, 0}, {0, 1}})
	out := ChebyshevPropagateWorkers(adj, emb.Clone(), 10, 0.2, 0.5, 1)
	if out.Rows != 3 || out.Cols != 2 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
	// Rows are unit-normalized.
	for i := 0; i < 3; i++ {
		if !approxEqual(L2Norm(out.Row(i)), 1, 1e-9) {
			t.Fatalf("row %d not normalized", i)
		}
	}
	// Node 1 (between 0 and 2) must be closer to both than they are to
	// each other.
	d01 := L1Distance(out.Row(0), out.Row(1))
	d02 := L1Distance(out.Row(0), out.Row(2))
	if d01 >= d02 {
		t.Errorf("propagation did not smooth: d(0,1)=%v >= d(0,2)=%v", d01, d02)
	}
}

func TestCSRScaleRowsAndRowNNZ(t *testing.T) {
	m := NewCSR(2, 3, []COO{
		{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 2, Val: 4}, {Row: 1, Col: 1, Val: 6},
	})
	m.ScaleRows([]float64{0.5, 2})
	if m.At(0, 0) != 1 || m.At(0, 2) != 2 || m.At(1, 1) != 12 {
		t.Errorf("ScaleRows wrong: %v %v %v", m.At(0, 0), m.At(0, 2), m.At(1, 1))
	}
	s, e := m.RowNNZ(0)
	if e-s != 2 {
		t.Errorf("RowNNZ(0) span = %d", e-s)
	}
}

func TestScaleCSR(t *testing.T) {
	m := NewCSR(1, 2, []COO{{Row: 0, Col: 0, Val: 3}, {Row: 0, Col: 1, Val: 5}})
	ScaleCSR(m, 2)
	if m.At(0, 0) != 6 || m.At(0, 1) != 10 {
		t.Errorf("ScaleCSR wrong")
	}
}

// Property: CSR assembly sums duplicates exactly like dense assembly.
func TestCSRAssemblyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		var coos []COO
		dense := NewDense(n, n)
		for k := 0; k < 30; k++ {
			r, c, v := rng.Intn(n), rng.Intn(n), rng.NormFloat64()
			coos = append(coos, COO{Row: r, Col: c, Val: v})
			dense.Set(r, c, dense.At(r, c)+v)
		}
		sparse := NewCSR(n, n, coos).Dense()
		for i := range dense.Data {
			if !approxEqual(sparse.Data[i], dense.Data[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
