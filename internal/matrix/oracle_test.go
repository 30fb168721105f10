package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// RandomizedSVDWorkers used to allocate a fresh n×k matrix for every
// product and QR of the range finder and a fresh U, and
// ChebyshevPropagateWorkers ran its recurrence in five n×d buffers on an
// I + A sorted from COO triples. The reused workspace, the in-place
// column-blocked filter and its merged I + A must reproduce them bit
// for bit; the original kernels live on here, unchanged but for their
// names and the V the SVD no longer returns, as the oracles.

// oracleRandomizedSVD is the allocating randomized SVD.
func oracleRandomizedSVD(m *CSR, d, oversample, powerIters int, rng *rand.Rand, workers int) SVDResult {
	if d <= 0 {
		panic("matrix: RandomizedSVD rank must be positive")
	}
	k := d + oversample
	if k > m.NumCols {
		k = m.NumCols
	}
	if k > m.NumRows {
		k = m.NumRows
	}
	if d > k {
		d = k
	}

	// Range sampling: Y = M * Omega.
	omega := Gaussian(m.NumCols, k, rng)
	y := m.MulDenseWorkers(omega, workers)
	for it := 0; it < powerIters; it++ {
		y = QR(y) // re-orthonormalize to avoid collapse
		z := m.TMulDenseWorkers(y, workers)
		y = m.MulDenseWorkers(z, workers)
	}
	q := QR(y) // NumRows x k orthonormal basis of the range

	// B = Qᵀ M computed transposed: Bt = Mᵀ Q (NumCols x k).
	bt := m.TMulDenseWorkers(q, workers)

	// C = B Bᵀ = Btᵀ Bt is k x k symmetric; its eigenpairs give the
	// left singular structure of B.
	c := bt.TMul(bt)
	eig, uhat := SymEigen(c)

	sigma := make([]float64, d)
	for i := 0; i < d; i++ {
		if eig[i] > 0 {
			sigma[i] = math.Sqrt(eig[i])
		}
	}
	// U = Q * Uhat[:, :d].
	uhatD := NewDense(k, d)
	for i := 0; i < k; i++ {
		for j := 0; j < d; j++ {
			uhatD.Set(i, j, uhat.At(i, j))
		}
	}
	u := q.MulWorkers(uhatD, workers)
	return SVDResult{U: u, Sigma: sigma}
}

// oracleChebyshevPropagate is the unblocked filter in five n×d buffers.
func oracleChebyshevPropagate(adj *CSR, emb *Dense, order int, mu, s float64, workers int) *Dense {
	if adj.NumRows != adj.NumCols || adj.NumRows != emb.Rows {
		panic("matrix: ChebyshevPropagate shape mismatch")
	}
	if order < 2 {
		order = 2
	}
	n := emb.Rows

	// DA = l1-row-normalized (I + A); M·x = (1-mu)·x − DA·x.
	selfLoops := make([]COO, 0, n+adj.NNZ())
	for i := 0; i < n; i++ {
		selfLoops = append(selfLoops, COO{Row: i, Col: i, Val: 1})
	}
	for i := 0; i < n; i++ {
		for p := adj.RowPtr[i]; p < adj.RowPtr[i+1]; p++ {
			selfLoops = append(selfLoops, COO{Row: i, Col: int(adj.ColIdx[p]), Val: adj.Vals[p]})
		}
	}
	aPlus := NewCSR(n, n, selfLoops)
	da := &CSR{NumRows: n, NumCols: n, RowPtr: aPlus.RowPtr, ColIdx: aPlus.ColIdx,
		Vals: append([]float64(nil), aPlus.Vals...)}
	sums := da.RowSums()
	inv := make([]float64, n)
	for i, v := range sums {
		if v != 0 {
			inv[i] = 1 / v
		}
	}
	da.ScaleRows(inv)

	// mdot writes M·x into dst (which must not alias x), row by row.
	omu := 1 - mu
	mdot := func(dst, x *Dense) {
		parallel.For(n, workers, func(_ int, r parallel.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				oi, xi := dst.Row(i), x.Row(i)
				da.mulRow(oi, i, x)
				for j, v := range oi {
					oi[j] = -v + float64(xi[j]*omu)
				}
			}
		})
	}

	tmp := NewDense(n, emb.Cols)
	lx0 := emb.Clone()
	lx1 := NewDense(n, emb.Cols)
	lx2 := NewDense(n, emb.Cols)
	conv := NewDense(n, emb.Cols)

	// lx1 = M²·emb/2 − emb; conv = I₀·lx0 − 2I₁·lx1.
	mdot(tmp, emb)
	mdot(lx1, tmp)
	c0, c1 := BesselI(0, s), 2*BesselI(1, s)
	for k, v := range lx1.Data {
		v = float64(v*0.5) - emb.Data[k]
		lx1.Data[k] = v
		conv.Data[k] = float64(lx0.Data[k]*c0) - float64(v*c1)
	}
	for i := 2; i < order; i++ {
		// lx2 = (M²·lx1 − 2·lx1) − lx0; conv ±= coeff·lx2.
		mdot(tmp, lx1)
		mdot(lx2, tmp)
		coeff := 2 * BesselI(i, s)
		for k, v := range lx2.Data {
			v = (v - float64(lx1.Data[k]*2)) - lx0.Data[k]
			lx2.Data[k] = v
			if i%2 == 0 {
				conv.Data[k] += float64(v * coeff)
			} else {
				conv.Data[k] -= float64(v * coeff)
			}
		}
		lx0, lx1, lx2 = lx1, lx2, lx0
	}

	// out = row-normalized (I + A)·(emb − conv), in the spare buffer.
	for k, v := range emb.Data {
		tmp.Data[k] = v - conv.Data[k]
	}
	out := lx2
	parallel.For(n, workers, func(_ int, r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			row := out.Row(i)
			aPlus.mulRow(row, i, tmp)
			norm := L2Norm(row)
			if norm > 1e-12 {
				for j := range row {
					row[j] /= norm
				}
			}
		}
	})
	return out
}

// symmetricAdj builds an n×n symmetric non-negative adjacency with
// roughly 2·density·n² entries and no self loops; node n-1 is isolated.
func symmetricAdj(n int, density float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var entries []COO
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n-1; j++ {
			if rng.Float64() < density {
				v := rng.Float64() + 0.1
				entries = append(entries, COO{Row: i, Col: j, Val: v}, COO{Row: j, Col: i, Val: v})
			}
		}
	}
	return NewCSR(n, n, entries)
}

func svdEqual(t *testing.T, name string, want, got SVDResult) {
	t.Helper()
	denseEqual(t, name+" U", want.U, got.U)
	if len(want.Sigma) != len(got.Sigma) {
		t.Fatalf("%s: %d singular values vs %d", name, len(want.Sigma), len(got.Sigma))
	}
	for i := range want.Sigma {
		if math.Float64bits(want.Sigma[i]) != math.Float64bits(got.Sigma[i]) {
			t.Fatalf("%s: Sigma[%d] = %v vs %v", name, i, want.Sigma[i], got.Sigma[i])
		}
	}
}

// withSelfLoops returns adj plus a self loop of random weight on every
// third node, the diagonal entries plusIdentity must sum with the 1.
func withSelfLoops(adj *CSR, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var entries []COO
	for i := 0; i < adj.NumRows; i++ {
		for p := adj.RowPtr[i]; p < adj.RowPtr[i+1]; p++ {
			entries = append(entries, COO{Row: i, Col: int(adj.ColIdx[p]), Val: adj.Vals[p]})
		}
		if i%3 == 0 {
			entries = append(entries, COO{Row: i, Col: i, Val: rng.Float64() + 0.1})
		}
	}
	return NewCSR(adj.NumRows, adj.NumCols, entries)
}

func TestChebyshevPropagateMatchesOracle(t *testing.T) {
	const n = 45
	plain := symmetricAdj(n, 0.08, 21)
	for _, adj := range []struct {
		name string
		m    *CSR
	}{{"plain", plain}, {"self-loops", withSelfLoops(plain, 22)}} {
		for _, d := range []int{1, 7, chebBlock, chebBlock + 1, 16, 64, 70} {
			emb := Gaussian(n, d, rand.New(rand.NewSource(int64(d))))
			// The isolated node with a zero row exercises the norm guard.
			clear(emb.Row(n - 1))
			for _, order := range []int{2, 3, 10} {
				want := oracleChebyshevPropagate(adj.m, emb, order, 0.2, 0.5, 1)
				for _, workers := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/d=%d/order=%d/workers=%d", adj.name, d, order, workers)
					in := emb.Clone()
					got := ChebyshevPropagateWorkers(adj.m, in, order, 0.2, 0.5, workers)
					denseEqual(t, name, want, got)
					if got != in {
						t.Fatalf("%s: the filter returned a new matrix instead of filtering its input in place", name)
					}
				}
			}
		}
	}
}

func TestPlusIdentityMatchesNewCSR(t *testing.T) {
	// Empty rows, rows whose columns all sit below or above the
	// diagonal, and diagonal entries (including a zero one) all occur.
	adj := withSelfLoops(symmetricAdj(40, 0.1, 23), 24)
	adj.Vals[adj.RowPtr[3]] = 0
	var entries []COO
	for i := 0; i < adj.NumRows; i++ {
		entries = append(entries, COO{Row: i, Col: i, Val: 1})
		for p := adj.RowPtr[i]; p < adj.RowPtr[i+1]; p++ {
			entries = append(entries, COO{Row: i, Col: int(adj.ColIdx[p]), Val: adj.Vals[p]})
		}
	}
	csrEqual(t, "plusIdentity", NewCSR(adj.NumRows, adj.NumCols, entries), plusIdentity(adj))

	unsorted := &CSR{NumRows: 2, NumCols: 2, RowPtr: []int32{0, 2, 2}, ColIdx: []int32{1, 0}, Vals: []float64{1, 1}}
	defer func() {
		if recover() == nil {
			t.Error("plusIdentity accepted a row whose columns are not sorted")
		}
	}()
	plusIdentity(unsorted)
}

func TestRandomizedSVDMatchesOracle(t *testing.T) {
	// lowRank has only three non-zero rows, so every range sample has
	// rank 3 and QR must zero the remaining columns.
	lowRank := randCSR(60, 60, 0.3, 31)
	for i := 3; i < lowRank.NumRows; i++ {
		for p := lowRank.RowPtr[i]; p < lowRank.RowPtr[i+1]; p++ {
			lowRank.Vals[p] = 0
		}
	}
	cases := []struct {
		name        string
		m           *CSR
		d, p, power int
	}{
		{"square", randCSR(120, 120, 0.1, 11), 8, 4, 2},
		{"square-no-power", randCSR(120, 120, 0.1, 12), 8, 4, 0},
		{"tall", randCSR(150, 40, 0.15, 13), 10, 6, 1},
		{"wide-k-capped-by-rows", randCSR(30, 90, 0.15, 14), 20, 16, 2},
		{"d-capped-by-rows", randCSR(12, 50, 0.3, 15), 16, 8, 1},
		{"rank-deficient", lowRank, 6, 4, 1},
	}
	for _, c := range cases {
		want := oracleRandomizedSVD(c.m, c.d, c.p, c.power, rand.New(rand.NewSource(7)), 1)
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/workers=%d", c.name, workers)
			got := RandomizedSVDWorkers(c.m, c.d, c.p, c.power, rand.New(rand.NewSource(7)), workers)
			svdEqual(t, name, want, got)
		}
	}

	// The rank-deficient case must actually reach QR's zero-column
	// branch, or it proves nothing about it.
	y := lowRank.MulDenseWorkers(Gaussian(60, 10, rand.New(rand.NewSource(7))), 1)
	qrInPlace(y)
	zero := 0
	for j := 0; j < y.Cols; j++ {
		nz := false
		for i := 0; i < y.Rows; i++ {
			nz = nz || y.At(i, j) != 0
		}
		if !nz {
			zero++
		}
	}
	if zero == 0 {
		t.Fatal("rank-deficient sample kept every QR column; the zero-column branch is not exercised")
	}
}

func TestQRLeavesInputUnchanged(t *testing.T) {
	a := Gaussian(50, 9, rand.New(rand.NewSource(41)))
	// Column 4 repeats column 1, so one column is zeroed.
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 4, a.At(i, 1))
	}
	before := a.Clone()
	q := QR(a)
	denseEqual(t, "QR input", before, a)
	inPlace := a.Clone()
	qrInPlace(inPlace)
	denseEqual(t, "QR vs qrInPlace", inPlace, q)
}

func TestSparseProductsIntoOverwriteDirtyBuffers(t *testing.T) {
	m := randCSR(83, 61, 0.1, 51)
	b := Gaussian(61, 9, rand.New(rand.NewSource(52)))
	bt := Gaussian(83, 9, rand.New(rand.NewSource(53)))
	for _, workers := range []int{1, 3} {
		out := Gaussian(83, 9, rand.New(rand.NewSource(54)))
		m.mulDenseInto(out, b, workers)
		denseEqual(t, "mulDenseInto", m.MulDenseWorkers(b, 1), out)
		tout := Gaussian(61, 9, rand.New(rand.NewSource(55)))
		m.tMulDenseInto(tout, bt, workers)
		denseEqual(t, "tMulDenseInto", m.TMulDenseWorkers(bt, 1), tout)
	}
}

// allocatedBytes returns the bytes fn allocates on the heap. With one
// worker the kernels run inline, so the count is deterministic.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The byte budgets below are the kernels' working sets written out, plus
// smallBudget for headers, closures and scheduling. They hold the
// workspace reuse in place: one stray n×k or n×d matrix exceeds them.
const smallBudget = 64 << 10

func TestRandomizedSVDByteBudget(t *testing.T) {
	const rows, d, p = 2000, 32, 8
	k := d + p
	for _, cols := range []int{rows, 1500} {
		m := randCSR(rows, cols, 0.004, 61)
		// y (rows×k) and the reused test-matrix buffer (cols×k), which
		// also takes U unless U is larger (a tall M); six k×k or k×d
		// matrices for the eigenproblem.
		budget := uint64(8*(rows*k+cols*k)+8*6*k*k) + smallBudget
		if rows*d > cols*k {
			budget += 8 * rows * d
		}
		got := allocatedBytes(func() {
			RandomizedSVDWorkers(m, d, p, 2, rand.New(rand.NewSource(1)), 1)
		})
		t.Logf("RandomizedSVD %dx%d allocated %d bytes, budget %d", rows, cols, got, budget)
		if got > budget {
			t.Errorf("RandomizedSVD %dx%d allocated %d bytes, budget %d", rows, cols, got, budget)
		}
	}
}

func TestChebyshevPropagateByteBudget(t *testing.T) {
	const n, d = 2000, 64
	adj := symmetricAdj(n, 0.005, 62)
	emb := Gaussian(n, d, rand.New(rand.NewSource(63)))
	nnz := adj.NNZ() + n // I + A
	// Four n×chebBlock buffers (the result is emb itself); the CSR of
	// I + A and DA's scaled values; the row sums and their inverses.
	budget := uint64(4*8*n*chebBlock) +
		uint64(4*(n+1)+4*nnz+8*nnz) + uint64(8*nnz) + uint64(2*8*n) +
		smallBudget
	got := allocatedBytes(func() {
		ChebyshevPropagateWorkers(adj, emb, 10, 0.2, 0.5, 1)
	})
	t.Logf("ChebyshevPropagate allocated %d bytes, budget %d", got, budget)
	if got > budget {
		t.Errorf("ChebyshevPropagate allocated %d bytes, budget %d", got, budget)
	}
}
