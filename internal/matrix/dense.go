// Package matrix supplies the linear-algebra substrate Leva's matrix
// factorization path needs: dense and CSR sparse matrices, a thin QR by
// modified Gram–Schmidt with reorthogonalization, a Jacobi symmetric
// eigensolver, the Halko-style randomized SVD the paper cites, PCA for
// embedding dimension reduction, and the Chebyshev spectral-propagation
// filter used as the ProNE-style enhancement.
//
// Everything is stdlib-only float64 code; matrices are row-major flat
// slices.
package matrix

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a Dense from row slices, which must be equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("matrix: ragged row %d: %d != %d", i, len(r), c))
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, v := range ri {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// MulWorkers returns m * b with the output rows partitioned across
// workers (<= 0 means GOMAXPROCS). Each output row is produced by one goroutine
// in the sequential accumulation order, so the product is bit-identical
// at every worker count.
func (m *Dense) MulWorkers(b *Dense, workers int) *Dense {
	out := NewDense(m.Rows, b.Cols)
	m.mulInto(out, b, workers)
	return out
}

// mulInto overwrites out (m.Rows x b.Cols, aliasing neither m nor b)
// with m * b, partitioned and accumulated as in MulWorkers.
func (m *Dense) mulInto(out, b *Dense, workers int) {
	if m.Cols != b.Rows || out.Rows != m.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d * %dx%d into %dx%d",
			m.Rows, m.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	parallel.For(m.Rows, workers, func(_ int, r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			ri := m.Row(i)
			oi := out.Row(i)
			clear(oi)
			for k, a := range ri {
				if a == 0 {
					continue
				}
				bk := b.Row(k)
				for j, bv := range bk {
					oi[j] += a * bv
				}
			}
		}
	})
}

// MulT returns m * bᵀ.
func (m *Dense) MulT(b *Dense) *Dense {
	if m.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulT shape mismatch %dx%d * (%dx%d)T", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewDense(m.Rows, b.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		oi := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			bj := b.Row(j)
			s := 0.0
			for k, a := range ri {
				s += a * bj[k]
			}
			oi[j] = s
		}
	}
	return out
}

// TMul returns mᵀ * b.
func (m *Dense) TMul(b *Dense) *Dense {
	if m.Rows != b.Rows {
		panic(fmt.Sprintf("matrix: TMul shape mismatch (%dx%d)T * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewDense(m.Cols, b.Cols)
	for k := 0; k < m.Rows; k++ {
		mk := m.Row(k)
		bk := b.Row(k)
		for i, a := range mk {
			if a == 0 {
				continue
			}
			oi := out.Row(i)
			for j, bv := range bk {
				oi[j] += a * bv
			}
		}
	}
	return out
}

// Add adds b into m in place and returns m.
func (m *Dense) Add(b *Dense) *Dense {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("matrix: Add shape mismatch")
	}
	for i, v := range b.Data {
		m.Data[i] += v
	}
	return m
}

// Sub subtracts b from m in place and returns m.
func (m *Dense) Sub(b *Dense) *Dense {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("matrix: Sub shape mismatch")
	}
	for i, v := range b.Data {
		m.Data[i] -= v
	}
	return m
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Norm returns the Frobenius norm.
func (m *Dense) Norm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Gaussian fills an r-by-c matrix with N(0,1) draws from rng.
func Gaussian(r, c int, rng *rand.Rand) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// L1Distance returns the Manhattan distance between two vectors.
func L1Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: L1Distance length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += math.Abs(v - b[i])
	}
	return s
}

// L2Norm returns the Euclidean norm of v.
func L2Norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between a and b,
// or 0 if either has zero norm.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := L2Norm(a), L2Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
