package matrix

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/parallel"
)

// COO is a coordinate-format triple used to assemble sparse matrices.
type COO struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix, the representation Leva's
// matrix-factorization path uses for the proximity matrix: the
// value-node construction keeps it sparse enough for randomized SVD.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int32 // len NumRows+1
	ColIdx           []int32 // len NNZ
	Vals             []float64
}

// NewCSR assembles a CSR matrix from unordered COO triples. Duplicate
// (row, col) entries are summed. The index and value arrays are sized
// for len(entries) up front: grown by append, they would allocate about
// five times their final size.
func NewCSR(rows, cols int, entries []COO) *CSR {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, 0, len(entries)), Vals: make([]float64, 0, len(entries))}
	for i := 0; i < len(entries); {
		e := entries[i]
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("matrix: COO entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols))
		}
		v := e.Val
		j := i + 1
		for j < len(entries) && entries[j].Row == e.Row && entries[j].Col == e.Col {
			v += entries[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, int32(e.Col))
		m.Vals = append(m.Vals, v)
		m.RowPtr[e.Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// Entry is one value of a CSR row under assembly (AppendRow).
type Entry struct {
	Col int32
	Val float64
}

// AppendRow appends row's entries, in any column order, to m's index
// and value arrays as one row: stably sorted by column, with the values
// of equal columns summed in row's order. It sorts row in place. The
// caller records the row's end in RowPtr.
func (m *CSR) AppendRow(row []Entry) {
	for _, e := range compactRow(row) {
		m.ColIdx = append(m.ColIdx, e.Col)
		m.Vals = append(m.Vals, e.Val)
	}
}

// compactRow stably sorts row by column and folds each run of equal
// columns into its first entry, summing the values in row's order. It
// works in place and returns the compacted prefix.
func compactRow(row []Entry) []Entry {
	slices.SortStableFunc(row, func(a, b Entry) int { return cmp.Compare(a.Col, b.Col) })
	out := row[:0]
	for _, e := range row {
		if n := len(out); n > 0 && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	return out
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Vals) }

// RowNNZ returns the slice bounds of row r's entries.
func (m *CSR) RowNNZ(r int) (start, end int32) { return m.RowPtr[r], m.RowPtr[r+1] }

// At returns element (i, j) with a binary search over row i.
func (m *CSR) At(i, j int) float64 {
	start, end := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.ColIdx[start:end]
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return m.Vals[int(start)+k]
	}
	return 0
}

// MulDenseWorkers returns m * b as a dense matrix, with the output rows
// partitioned across workers (<= 0 means GOMAXPROCS). Each output row is accumulated by
// exactly one goroutine in the sequential order, so the product is
// bit-identical at every worker count.
func (m *CSR) MulDenseWorkers(b *Dense, workers int) *Dense {
	out := NewDense(m.NumRows, b.Cols)
	m.mulDenseInto(out, b, workers)
	return out
}

// mulDenseInto overwrites out (NumRows x b.Cols, not aliasing b) with
// m * b, partitioned as in MulDenseWorkers.
func (m *CSR) mulDenseInto(out, b *Dense, workers int) {
	if m.NumCols != b.Rows || out.Rows != m.NumRows || out.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: CSR MulDense shape mismatch %dx%d * %dx%d into %dx%d",
			m.NumRows, m.NumCols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	parallel.For(m.NumRows, workers, func(_ int, r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			m.mulRow(out.Row(i), i, b)
		}
	})
}

// mulRow overwrites oi with row i of m*b, accumulating m's entries in
// stored order.
func (m *CSR) mulRow(oi []float64, i int, b *Dense) {
	clear(oi)
	for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
		v := m.Vals[p]
		bk := b.Row(int(m.ColIdx[p]))
		for j, bv := range bk {
			oi[j] += v * bv
		}
	}
}

// TMulDenseWorkers returns mᵀ * b as a dense matrix, with the *output*
// rows (m's columns) partitioned across workers (<= 0 means GOMAXPROCS). Every worker
// scans all of m but only accumulates entries whose column falls in its
// partition, so writes are disjoint and each output row sums its
// contributions in the sequential input-row order — bit-identical at
// every worker count, at the cost of re-reading the index arrays once
// per worker (cheap next to the fused multiply-adds).
func (m *CSR) TMulDenseWorkers(b *Dense, workers int) *Dense {
	out := NewDense(m.NumCols, b.Cols)
	m.tMulDenseInto(out, b, workers)
	return out
}

// tMulDenseInto overwrites out (NumCols x b.Cols, not aliasing b) with
// mᵀ * b, partitioned as in TMulDenseWorkers. It clears out first, so
// every output row accumulates from zero exactly as in a fresh matrix.
func (m *CSR) tMulDenseInto(out, b *Dense, workers int) {
	if m.NumRows != b.Rows || out.Rows != m.NumCols || out.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: CSR TMulDense shape mismatch (%dx%d)T * %dx%d into %dx%d",
			m.NumRows, m.NumCols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	clear(out.Data)
	parallel.For(m.NumCols, workers, func(_ int, cr parallel.Range) {
		lo, hi := int32(cr.Lo), int32(cr.Hi)
		for i := 0; i < m.NumRows; i++ {
			bi := b.Row(i)
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				c := m.ColIdx[p]
				if c < lo || c >= hi {
					continue
				}
				v := m.Vals[p]
				oc := out.Row(int(c))
				for j, bv := range bi {
					oc[j] += v * bv
				}
			}
		}
	})
}

// MulVec returns m * x.
func (m *CSR) MulVec(x []float64) []float64 {
	if m.NumCols != len(x) {
		panic("matrix: CSR MulVec length mismatch")
	}
	out := make([]float64, m.NumRows)
	for i := 0; i < m.NumRows; i++ {
		s := 0.0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Vals[p] * x[m.ColIdx[p]]
		}
		out[i] = s
	}
	return out
}

// Dense expands the matrix to dense form (for tests and small inputs).
func (m *CSR) Dense() *Dense {
	out := NewDense(m.NumRows, m.NumCols)
	for i := 0; i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.Set(i, int(m.ColIdx[p]), m.Vals[p])
		}
	}
	return out
}

// RowSums returns the vector of per-row sums.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.NumRows)
	for i := 0; i < m.NumRows; i++ {
		s := 0.0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Vals[p]
		}
		out[i] = s
	}
	return out
}

// ScaleRows multiplies row i by s[i] in place.
func (m *CSR) ScaleRows(s []float64) {
	if len(s) != m.NumRows {
		panic("matrix: ScaleRows length mismatch")
	}
	for i := 0; i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			m.Vals[p] *= s[i]
		}
	}
}
