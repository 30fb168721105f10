package ann

import (
	"bytes"
	"testing"
)

// FuzzDecode mirrors the bundle io fuzz tests for the index codec: no
// input may panic Decode, every rejection must use a named error, and
// every accepted input must re-encode byte-identically and answer a
// query — so a file that survives decoding is actually servable.
func FuzzDecode(f *testing.F) {
	valid := testIndex(f, 24, 4, 8).Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("LEVAHNSW"))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(indexMagic)+4])
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0x40
	f.Add(mutated)
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	for _, c := range lyingIndexes(f) {
		f.Add(c.data)
	}
	// One index of each link-id width, on either side of the boundary.
	f.Add(boundaryIndex(f, narrowMaxNodes).Encode())
	f.Add(boundaryIndex(f, narrowMaxNodes+1).Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Decode(data)
		if err != nil {
			if !isNamedError(err) {
				t.Fatalf("decode rejection is not a named error: %v", err)
			}
			return
		}
		if !bytes.Equal(ix.Encode(), data) {
			t.Fatal("accepted input does not re-encode byte-identically")
		}
		if _, err := ix.SearchVector(make([]float64, ix.Dim()), 1, 4); err != nil {
			t.Fatalf("accepted index cannot answer a query: %v", err)
		}
	})
}
