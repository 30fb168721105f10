package matrix

import (
	"math"
	"math/rand"
)

// SVDResult holds the left half of a truncated singular value
// decomposition M ≈ U Σ Vᵀ. V is not computed: the embedding is U·Σ^½,
// and a caller that needs V recovers it as Mᵀ·U·Σ⁻¹.
type SVDResult struct {
	U     *Dense    // NumRows x d left singular vectors
	Sigma []float64 // d singular values, descending
}

// RandomizedSVDWorkers computes a rank-d truncated SVD of a sparse
// matrix with the Halko–Martinsson–Tropp randomized range finder the
// paper cites: sample the range with a Gaussian test matrix, optionally
// sharpen the spectrum with power iterations, orthonormalize, and solve
// the small (d+p)x(d+p) eigenproblem of B·Bᵀ exactly with Jacobi.
//
// oversample (p) adds slack columns to the test matrix; 8-10 is typical.
// powerIters of 1-2 substantially improves accuracy on matrices with a
// slowly decaying spectrum at the cost of extra sparse multiplies.
//
// The sparse and tall-dense matrix products are row-partitioned across
// workers (<= 0 means GOMAXPROCS). The Gaussian sampling stays a single sequential rng
// stream and the partitioned products accumulate in sequential order,
// so the decomposition is bit-identical at every worker count; only the
// O(rows·k²) QR and the tiny k×k eigensolve remain single-threaded.
//
// The range finder runs in two buffers: y (NumRows x k) is
// orthonormalized in place, and the test matrix's buffer (NumCols x k)
// is reused for every z = Mᵀy and then holds Bt. Once C = Btᵀ·Bt is
// formed, Bt is dead and U is written into the front of that buffer
// when it fits (always for a square M, since d <= k). Apart from them
// it allocates only the k-sized eigenproblem.
func RandomizedSVDWorkers(m *CSR, d, oversample, powerIters int, rng *rand.Rand, workers int) SVDResult {
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
	w := Gaussian(m.NumCols, k, rng)
	y := NewDense(m.NumRows, k)
	m.mulDenseInto(y, w, workers)
	for it := 0; it < powerIters; it++ {
		qrInPlace(y) // re-orthonormalize to avoid collapse
		m.tMulDenseInto(w, y, workers)
		m.mulDenseInto(y, w, workers)
	}
	qrInPlace(y) // Q: NumRows x k orthonormal basis of the range
	q := y

	// B = Qᵀ M computed transposed: Bt = Mᵀ Q (NumCols x k).
	m.tMulDenseInto(w, q, workers)
	bt := w

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
	// U = Q * Uhat[:, :d], into Bt's buffer when it is large enough.
	uhatD := NewDense(k, d)
	for i := 0; i < k; i++ {
		for j := 0; j < d; j++ {
			uhatD.Set(i, j, uhat.At(i, j))
		}
	}
	var u *Dense
	if n := m.NumRows * d; n <= len(bt.Data) {
		u = &Dense{Rows: m.NumRows, Cols: d, Data: bt.Data[:n:n]}
	} else {
		u = NewDense(m.NumRows, d)
	}
	q.mulInto(u, uhatD, workers)
	return SVDResult{U: u, Sigma: sigma}
}

// EmbeddingFromSVD returns E = U Σ^{1/2}, the node-embedding convention
// from the paper (Section 4.2.1). It scales res.U in place and returns
// it.
func EmbeddingFromSVD(res SVDResult) *Dense {
	d := len(res.Sigma)
	e := res.U
	for j := 0; j < d; j++ {
		s := math.Sqrt(math.Max(res.Sigma[j], 0))
		for i := 0; i < e.Rows; i++ {
			e.Data[i*d+j] *= s
		}
	}
	return e
}
