package matrix

import (
	"math"
)

// QR computes a thin QR decomposition of an m-by-n matrix (m >= n) by
// modified Gram-Schmidt with one reorthogonalization pass, returning the
// m-by-n orthonormal factor Q. The R factor is discarded because the
// randomized range finder only needs the basis. Columns that become
// numerically zero (rank deficiency) are replaced with zero vectors.
// a is left unchanged.
func QR(a *Dense) *Dense {
	q := a.Clone()
	qrInPlace(q)
	return q
}

// qrInPlace overwrites q with QR(q) bit for bit, without the copy.
func qrInPlace(q *Dense) {
	m, n := q.Rows, q.Cols
	// Column-major access via strided indexing into the row-major data.
	col := func(j int) func(i int) *float64 {
		return func(i int) *float64 { return &q.Data[i*n+j] }
	}
	for j := 0; j < n; j++ {
		cj := col(j)
		// Two rounds of projection against previous columns for
		// numerical robustness ("twice is enough").
		for round := 0; round < 2; round++ {
			for k := 0; k < j; k++ {
				ck := col(k)
				dot := 0.0
				for i := 0; i < m; i++ {
					dot += *ck(i) * *cj(i)
				}
				if dot == 0 {
					continue
				}
				for i := 0; i < m; i++ {
					*cj(i) -= dot * *ck(i)
				}
			}
		}
		norm := 0.0
		for i := 0; i < m; i++ {
			v := *cj(i)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			for i := 0; i < m; i++ {
				*cj(i) = 0
			}
			continue
		}
		inv := 1 / norm
		for i := 0; i < m; i++ {
			*cj(i) *= inv
		}
	}
}

// SymEigen computes the eigendecomposition of a small symmetric matrix
// with the cyclic Jacobi method. It returns eigenvalues in descending
// order and the matching eigenvectors as the columns of V.
func SymEigen(a *Dense) (eigvals []float64, v *Dense) {
	n := a.Rows
	if a.Cols != n {
		panic("matrix: SymEigen requires a square matrix")
	}
	w := a.Clone()
	v = NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}
	eigvals = make([]float64, n)
	for i := 0; i < n; i++ {
		eigvals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if eigvals[idx[j]] > eigvals[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	sortedVals := make([]float64, n)
	sortedV := NewDense(n, n)
	for newJ, oldJ := range idx {
		sortedVals[newJ] = eigvals[oldJ]
		for i := 0; i < n; i++ {
			sortedV.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return sortedVals, sortedV
}

// rotate applies the Jacobi rotation G(p,q,c,s) as GᵀWG and updates the
// accumulated eigenvector matrix V <- VG.
func rotate(w, v *Dense, p, q int, c, s float64) {
	n := w.Rows
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj, wqj := w.At(p, j), w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}
