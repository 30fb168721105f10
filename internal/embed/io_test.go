package embed

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matrix"
)

func TestWriteTSVRejectsSeparatorNames(t *testing.T) {
	e := NewEmbedding([]string{"bad\tname"}, matrix.FromRows([][]float64{{1}}))
	if err := e.WriteTSV(&bytes.Buffer{}); err == nil {
		t.Error("tab in name accepted")
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"noseparator\n",   // no tab
		"a\t1 2\nb\t1\n",  // ragged dims
		"a\tnotanumber\n", // parse failure
	}
	for _, c := range cases {
		if _, err := ReadTSV(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

// TestTSVRoundTrip: WriteTSV prints each stored float32 in its
// shortest form and ReadTSV parses it straight back to float32, so the
// names survive in order and the re-read arena is bit-equal to the
// written one — including subnormals, the extremes of the float32
// range and signed zeros.
func TestTSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, dim = 200, 7
	names := make([]string, n)
	m := matrix.NewDense(n, dim)
	for i := range names {
		names[i] = fmt.Sprintf("t:%d", i)
		for j := 0; j < dim; j++ {
			m.Set(i, j, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(13)-6)))
		}
	}
	names[1], names[2] = "tok", "a b"
	copy(m.Row(0), []float64{math.MaxFloat32, -math.SmallestNonzeroFloat32, 1e-40, math.Copysign(0, -1), 0, 1, 0.1})
	e := NewEmbedding(names, m)
	var buf bytes.Buffer
	if err := e.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	const row0 = "t:0\t3.4028235e+38 -1e-45 1e-40 -0 0 1 0.1\n"
	if !strings.HasPrefix(buf.String(), row0) {
		t.Fatalf("first line is not in float32 shortest form: got %q, want %q", strings.SplitAfter(buf.String(), "\n")[0], row0)
	}
	back, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != n || back.Dim != dim {
		t.Fatalf("round trip shape %d/%d", back.Len(), back.Dim)
	}
	for i, name := range back.Names() {
		if name != names[i] {
			t.Fatalf("name %d = %q, want %q", i, name, names[i])
		}
	}
	want, got := e.Arena(), back.Arena()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("value %d: read back %v (%#x), wrote %v (%#x)", i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}
