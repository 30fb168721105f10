package matrix

import (
	"fmt"

	"repro/internal/parallel"
)

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

// chebBlock is the column-block width of the Chebyshev filter. Column
// j of M·x depends only on column j of x, so the recurrence runs one
// block of columns at a time in n×chebBlock buffers instead of n×d
// ones. 8 was chosen by measurement: it keeps the working set small
// without measurably slowing the filter at d = 64.
const chebBlock = 8

// ChebyshevPropagateWorkers applies the ProNE-style spectral
// propagation enhancement (paper reference [41]) to an embedding: a
// truncated Chebyshev expansion of a Gaussian band-pass graph filter,
// evaluated with nothing but sparse matrix-vector products.
//
// adj is the symmetric n-by-n adjacency matrix, each row sorted by
// column without repeats (the form NewCSR builds); emb is the n-by-d
// initial embedding, which is filtered in place and returned. order is
// the expansion order (ProNE default 10), mu the band-pass center
// (default 0.2) and s the kernel width (default 0.5). The result rows
// are L2-normalized.
//
// The sparse-dense products are row-partitioned across workers (<= 0
// means GOMAXPROCS); the filter is bit-identical at every worker count
// because each output row accumulates in sequential order on exactly
// one goroutine.
//
// The recurrence runs over emb's columns in blocks of chebBlock, in
// four n×chebBlock buffers (tmp, lx0, lx1, conv) reused by every block.
// A block of emb is read twice, into lx0 and then into tmp = emb −
// conv, before (I + A)·tmp is written back over it, so emb itself holds
// the result; its rows are L2-normalized once all blocks are done.
// Every element goes through the same operations in the same order as
// in an unblocked filter, so blocking changes no bit. In the element
// loops every product is rounded before the add or subtract that uses
// it: the explicit float64 conversions forbid a compiler from fusing
// the two (Go spec, "Floating-point operators"), so these loops round
// the same way on every target.
func ChebyshevPropagateWorkers(adj *CSR, emb *Dense, order int, mu, s float64, workers int) *Dense {
	if adj.NumRows != adj.NumCols || adj.NumRows != emb.Rows {
		panic("matrix: ChebyshevPropagate shape mismatch")
	}
	if order < 2 {
		order = 2
	}
	n, d := emb.Rows, emb.Cols

	// DA = l1-row-normalized (I + A); M·x = (1-mu)·x − DA·x.
	aPlus := plusIdentity(adj)
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

	// mrow writes row i of M·x into dst (which must not alias x).
	omu := 1 - mu
	mrow := func(dst []float64, i int, x *Dense) {
		da.mulRow(dst, i, x)
		xi := x.Row(i)
		for j, v := range dst {
			dst[j] = -v + float64(xi[j]*omu)
		}
	}
	// rows runs fn over every row, partitioned across workers; fn gets
	// a per-shard scratch row of the block width.
	rows := func(w int, fn func(i int, scratch []float64)) {
		parallel.For(n, workers, func(_ int, r parallel.Range) {
			var buf [chebBlock]float64
			for i := r.Lo; i < r.Hi; i++ {
				fn(i, buf[:w])
			}
		})
	}

	bw := min(d, chebBlock)
	tmpBuf, lx0Buf := make([]float64, n*bw), make([]float64, n*bw)
	lx1Buf, convBuf := make([]float64, n*bw), make([]float64, n*bw)
	c0, c1 := BesselI(0, s), 2*BesselI(1, s)
	for lo := 0; lo < d; lo += chebBlock {
		w := min(d-lo, chebBlock)
		view := func(buf []float64) *Dense { return &Dense{Rows: n, Cols: w, Data: buf[:n*w]} }
		tmp, lx0, lx1, conv := view(tmpBuf), view(lx0Buf), view(lx1Buf), view(convBuf)

		// lx0 = emb's block; tmp = M·lx0.
		for i := 0; i < n; i++ {
			copy(lx0.Row(i), emb.Row(i)[lo:lo+w])
		}
		rows(w, func(i int, _ []float64) { mrow(tmp.Row(i), i, lx0) })
		// lx1 = M²·lx0/2 − lx0; conv = I₀·lx0 − 2I₁·lx1.
		rows(w, func(i int, r []float64) {
			mrow(r, i, tmp)
			l0, l1, cv := lx0.Row(i), lx1.Row(i), conv.Row(i)
			for j, v := range r {
				v = float64(v*0.5) - l0[j]
				l1[j] = v
				cv[j] = float64(l0[j]*c0) - float64(v*c1)
			}
		})
		for t := 2; t < order; t++ {
			// lx2 = (M²·lx1 − 2·lx1) − lx0, written over lx0 row by
			// row (row i of lx0 is read only for row i); conv ±=
			// coeff·lx2. Then lx0, lx1 = lx1, lx2.
			rows(w, func(i int, _ []float64) { mrow(tmp.Row(i), i, lx1) })
			coeff := 2 * BesselI(t, s)
			rows(w, func(i int, r []float64) {
				mrow(r, i, tmp)
				l0, l1, cv := lx0.Row(i), lx1.Row(i), conv.Row(i)
				for j, v := range r {
					v = (v - float64(l1[j]*2)) - l0[j]
					l0[j] = v
					if t%2 == 0 {
						cv[j] += float64(v * coeff)
					} else {
						cv[j] -= float64(v * coeff)
					}
				}
			})
			lx0, lx1 = lx1, lx0
		}

		// emb's block = (I + A)·(emb − conv), with emb − conv in tmp.
		for i := 0; i < n; i++ {
			ti, cv := tmp.Row(i), conv.Row(i)
			for j, v := range emb.Row(i)[lo : lo+w] {
				ti[j] = v - cv[j]
			}
		}
		rows(w, func(i int, _ []float64) { aPlus.mulRow(emb.Row(i)[lo:lo+w], i, tmp) })
	}

	// Row-normalize the assembled result.
	rows(0, func(i int, _ []float64) {
		row := emb.Row(i)
		norm := L2Norm(row)
		if norm > 1e-12 {
			for j := range row {
				row[j] /= norm
			}
		}
	})
	return emb
}

// plusIdentity returns I + A for a square adj whose rows are sorted by
// column without repeats. The 1 is merged into each row in column
// order, and a diagonal entry becomes 1 + a_ii: the same layout and
// values as NewCSR over the COO triples of I and A, without the triples
// or their sort.
func plusIdentity(adj *CSR) *CSR {
	n := adj.NumRows
	out := &CSR{NumRows: n, NumCols: n, RowPtr: make([]int32, n+1),
		ColIdx: make([]int32, 0, n+adj.NNZ()), Vals: make([]float64, 0, n+adj.NNZ())}
	for i := 0; i < n; i++ {
		diag, prev := int32(i), int32(-1)
		for p := adj.RowPtr[i]; p < adj.RowPtr[i+1]; p++ {
			c, v := adj.ColIdx[p], adj.Vals[p]
			if c <= prev {
				panic(fmt.Sprintf("matrix: adjacency row %d is not sorted by column without repeats", i))
			}
			prev = c
			if diag >= 0 && c >= diag {
				if c == diag {
					v = 1 + v
				} else {
					out.ColIdx = append(out.ColIdx, diag)
					out.Vals = append(out.Vals, 1)
				}
				diag = -1
			}
			out.ColIdx = append(out.ColIdx, c)
			out.Vals = append(out.Vals, v)
		}
		if diag >= 0 {
			out.ColIdx = append(out.ColIdx, diag)
			out.Vals = append(out.Vals, 1)
		}
		out.RowPtr[i+1] = int32(len(out.Vals))
	}
	return out
}
