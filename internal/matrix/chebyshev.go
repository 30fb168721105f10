package matrix

import "repro/internal/parallel"

// BesselI returns the modified Bessel function of the first kind I_n(x)
// by direct series summation. It is accurate for the small orders and
// arguments the spectral propagation filter uses (n <= ~30, |x| <= ~10).
func BesselI(n int, x float64) float64 {
	if n < 0 {
		n = -n
	}
	half := x / 2
	// term_k = (x/2)^(2k+n) / (k! (k+n)!)
	term := 1.0
	for i := 1; i <= n; i++ {
		term *= half / float64(i)
	}
	sum := term
	for k := 1; k < 64; k++ {
		term *= half * half / (float64(k) * float64(k+n))
		sum += term
		if term < 1e-18*sum {
			break
		}
	}
	return sum
}

// ChebyshevPropagate applies the ProNE-style spectral propagation
// enhancement (paper reference [41]) to an embedding: a truncated
// Chebyshev expansion of a Gaussian band-pass graph filter, evaluated
// with nothing but sparse matrix-vector products.
//
// adj is the symmetric n-by-n adjacency matrix, emb the n-by-d initial
// embedding. order is the expansion order (ProNE default 10), mu the
// band-pass center (default 0.2) and s the kernel width (default 0.5).
// The result rows are L2-normalized.
func ChebyshevPropagate(adj *CSR, emb *Dense, order int, mu, s float64) *Dense {
	return ChebyshevPropagateWorkers(adj, emb, order, mu, s, 1)
}

// ChebyshevPropagateWorkers is ChebyshevPropagate with its sparse-dense
// products row-partitioned across workers (<= 0 means GOMAXPROCS); the
// filter is bit-identical at every worker count because each output row
// accumulates in sequential order on exactly one goroutine.
//
// The recurrence runs in five n×d buffers, allocated once and rotated
// between steps; emb is only read. In the element loops every product
// is rounded before the add or subtract that uses it: the explicit
// float64 conversions forbid a compiler from fusing the two (Go spec,
// "Floating-point operators"), so these loops round the same way on
// every target.
func ChebyshevPropagateWorkers(adj *CSR, emb *Dense, order int, mu, s float64, workers int) *Dense {
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
