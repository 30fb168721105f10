package embed

import (
	"math"

	"repro/internal/matrix"
)

// Scalar int8 quantization of the vector arena.
//
// Each row is quantized independently and symmetrically: the row's
// scale is maxabs/127 and the zero point is always 0, so a stored byte
// q decodes to q*scale and negation/dot-product structure is preserved
// exactly (q(-x) == -q(x)). Per-row scales keep the representable
// range tight for embeddings whose row norms vary by orders of
// magnitude — one global scale would crush small rows to zero.
//
// The round-trip error bound is the quantization step: for every
// element x of row i, |x - Dequantize(x)| <= Scales[i]/2 (rounding to
// nearest), which QuantizeRoundTripBound exposes and the tests assert.

// QuantizedMatrix is a row-major int8 matrix with one float64 scale
// per row: element (i, j) represents Scales[i] * Data[i*Cols+j]. It is
// immutable by convention once built — serving code shares it across
// goroutines without locking.
type QuantizedMatrix struct {
	Rows, Cols int
	// Data holds the quantized elements, row-major, len Rows*Cols.
	Data []int8
	// Scales holds the per-row dequantization factor, len Rows. A zero
	// scale marks an all-zero row.
	Scales []float64
}

// Quantize builds the symmetric int8 form of the rows × cols row-major
// matrix data. Rows are widened to float64 one at a time into a single
// scratch row, so Quantize allocates the int8 arena, its scales and
// that row, never a float64 copy of a float32 input. Non-finite inputs
// are clamped: NaN quantizes to 0, ±Inf to ±127 with the scale taken
// over the finite elements only (an all-±Inf row gets scale 0 and
// saturated bytes decode to 0 — embeddings never contain such rows,
// but the quantizer must not poison a whole arena over one bad
// element).
func Quantize[T float32 | float64](rows, cols int, data []T) *QuantizedMatrix {
	q := &QuantizedMatrix{
		Rows:   rows,
		Cols:   cols,
		Data:   make([]int8, rows*cols),
		Scales: make([]float64, rows),
	}
	row := make([]float64, cols)
	for i := range q.Scales {
		for j, x := range data[i*cols : (i+1)*cols] {
			row[j] = float64(x)
		}
		q.Scales[i] = QuantizeRow(row, q.Row(i))
	}
	return q
}

// QuantizeRow quantizes one vector into dst (len(dst) == len(v)) and
// returns the scale. Shared by the arena quantizer and the per-query
// path in internal/ann.
func QuantizeRow(v []float64, dst []int8) float64 {
	var maxAbs float64
	for _, x := range v {
		a := math.Abs(x)
		if a > maxAbs && !math.IsInf(a, 1) {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for j, x := range v {
		switch {
		case math.IsNaN(x):
			dst[j] = 0
		case x*inv > 127:
			dst[j] = 127
		case x*inv < -127:
			dst[j] = -127
		default:
			dst[j] = int8(math.RoundToEven(x * inv))
		}
	}
	return scale
}

// Row returns a view (not a copy) of row i.
func (q *QuantizedMatrix) Row(i int) []int8 {
	return q.Data[i*q.Cols : (i+1)*q.Cols]
}

// DequantizeRow decodes row i into dst, which must have length Cols.
func (q *QuantizedMatrix) DequantizeRow(i int, dst []float64) {
	s := q.Scales[i]
	row := q.Row(i)
	for j, b := range row {
		dst[j] = float64(b) * s
	}
}

// Dequantize decodes the whole matrix into a fresh Dense.
func (q *QuantizedMatrix) Dequantize() *matrix.Dense {
	m := matrix.NewDense(q.Rows, q.Cols)
	for i := 0; i < q.Rows; i++ {
		q.DequantizeRow(i, m.Row(i))
	}
	return m
}

// Bytes is the in-memory footprint of the quantized representation:
// one byte per element plus one float64 scale per row. Compare with
// 4*Rows*Cols for the float32 arena it replaces.
func (q *QuantizedMatrix) Bytes() int64 {
	return int64(len(q.Data)) + 8*int64(len(q.Scales))
}

// RoundTripBound returns the worst-case absolute reconstruction error
// of row i: half the quantization step.
func (q *QuantizedMatrix) RoundTripBound(i int) float64 {
	return q.Scales[i] / 2
}
