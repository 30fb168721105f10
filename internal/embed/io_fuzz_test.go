package embed

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadTSV asserts the embedding parser never panics on corrupted or
// truncated input, and that anything it accepts survives a write/read
// round trip with identical shape and bit-identical values (any NaN
// reads back as a NaN).
func FuzzReadTSV(f *testing.F) {
	f.Add("a\t1 2 3\nb\t4 5 6\n")
	f.Add("a\t1 2 3\nb\t4 5\n")       // ragged dims
	f.Add("name only no tab\n")       // missing separator
	f.Add("x\tnot-a-number\n")        // bad float
	f.Add("x\t1\n\nx2\t2\n")          // blank lines, duplicate-ish names
	f.Add("x\tNaN Inf -Inf\n")        // non-finite floats round-trip
	f.Add("")                         // empty file
	f.Add("x\t1e308 -1e308 1e-308\n") // extreme magnitudes
	f.Add("\t1 2\n")                  // empty name
	f.Fuzz(func(t *testing.T, input string) {
		e, err := ReadTSV(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if e.Len() == 0 || e.Dim < 0 {
			t.Fatalf("accepted embedding has shape %d x %d", e.Len(), e.Dim)
		}
		var buf bytes.Buffer
		if err := e.WriteTSV(&buf); err != nil {
			// Accepted names containing separators cannot re-serialize;
			// anything else must round-trip.
			if strings.Contains(err.Error(), "separator") {
				return
			}
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Len() != e.Len() || back.Dim != e.Dim {
			t.Fatalf("round trip shape %dx%d != %dx%d", back.Len(), back.Dim, e.Len(), e.Dim)
		}
		for i, v := range e.Arena() {
			w := back.Arena()[i]
			if math.Float32bits(w) != math.Float32bits(v) && !(v != v && w != w) {
				t.Fatalf("round trip value %d: %v, wrote %v", i, w, v)
			}
		}
	})
}
