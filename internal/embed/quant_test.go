package embed

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/matrix"
)

func TestQuantizeRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := matrix.NewDense(50, 32)
	for i := range m.Data {
		m.Data[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(5)-2))
	}
	q := Quantize(m.Rows, m.Cols, m.Data)
	if q.Rows != m.Rows || q.Cols != m.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", q.Rows, q.Cols, m.Rows, m.Cols)
	}
	dq := q.Dequantize()
	for i := 0; i < m.Rows; i++ {
		bound := q.RoundTripBound(i)
		for j := 0; j < m.Cols; j++ {
			err := math.Abs(m.At(i, j) - dq.At(i, j))
			// RoundToEven can land exactly on the half step; allow a
			// hair of float slack on top of scale/2.
			if err > bound*(1+1e-12) {
				t.Fatalf("row %d col %d: |%v - %v| = %v exceeds bound %v",
					i, j, m.At(i, j), dq.At(i, j), err, bound)
			}
		}
	}
}

func TestQuantizePerRowScale(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{1, -1, 0.5},
		{1000, -500, 250},
		{0, 0, 0},
	})
	q := Quantize(m.Rows, m.Cols, m.Data)
	if got, want := q.Scales[0], 1.0/127; got != want {
		t.Fatalf("row 0 scale = %v, want %v", got, want)
	}
	if got, want := q.Scales[1], 1000.0/127; got != want {
		t.Fatalf("row 1 scale = %v, want %v", got, want)
	}
	if q.Scales[2] != 0 {
		t.Fatalf("zero row scale = %v, want 0", q.Scales[2])
	}
	for _, b := range q.Row(2) {
		if b != 0 {
			t.Fatalf("zero row quantized to %v", q.Row(2))
		}
	}
	// The max-magnitude element hits ±127 exactly.
	if q.Row(0)[0] != 127 || q.Row(0)[1] != -127 {
		t.Fatalf("row 0 = %v, want extremes at ±127", q.Row(0))
	}
	dst := make([]float64, 3)
	q.DequantizeRow(1, dst)
	if dst[0] != 1000 {
		t.Fatalf("dequantized max element %v, want exact 1000", dst[0])
	}
}

func TestQuantizeNonFinite(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{math.NaN(), 2, math.Inf(1), -3, math.Inf(-1)},
	})
	q := Quantize(m.Rows, m.Cols, m.Data)
	// Scale comes from the finite elements (maxabs 3); NaN → 0, ±Inf
	// saturate.
	if got, want := q.Scales[0], 3.0/127; got != want {
		t.Fatalf("scale = %v, want %v", got, want)
	}
	row := q.Row(0)
	if row[0] != 0 || row[2] != 127 || row[4] != -127 {
		t.Fatalf("non-finite row quantized to %v", row)
	}
}

// TestQuantizeFloat32MatchesWidened: a float32 matrix quantizes to
// exactly the arena of its float64 widening.
func TestQuantizeFloat32MatchesWidened(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	narrow := make([]float32, 12*7)
	wide := make([]float64, len(narrow))
	for i := range narrow {
		narrow[i] = float32(rng.NormFloat64())
		wide[i] = float64(narrow[i])
	}
	if got, want := Quantize(12, 7, narrow), Quantize(12, 7, wide); !reflect.DeepEqual(got, want) {
		t.Fatalf("float32 arena %+v, widened float64 arena %+v", got, want)
	}
}

func TestQuantizedBytes(t *testing.T) {
	q := Quantize(10, 100, make([]float64, 10*100))
	if got, want := q.Bytes(), int64(10*100+8*10); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
	// The headline claim: >= 4x smaller than the float arena at any
	// realistic dimension (here 100: 7.4x).
	float := int64(8 * 10 * 100)
	if float < 4*q.Bytes() {
		t.Fatalf("quantized arena %d bytes vs float %d: less than 4x reduction", q.Bytes(), float)
	}
}
