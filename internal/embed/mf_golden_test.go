// The pinned hashes are amd64 results below GOAMD64=v3, where Go never
// fuses a multiply-add. Targets that fuse the accumulations of the
// sparse products and the SVD round differently, so the pin applies
// only here.

//go:build amd64 && !amd64.v3

package embed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// mfGolden pins MF's output bits on mfFixtureGraph: the SHA-256 of the
// arena's little-endian float64 bits, keyed by window and propagation.
// A kernel rewrite (the fused windowed-PMI pass, the in-place Chebyshev
// filter) must reproduce these exactly; any change to them is a change
// to every embedding, cached entry and bundle built with MF.
var mfGolden = map[string]string{
	"window=1/prop=true":  "bec6d0030ef0452baaed2037dd9fe06c6fa480ec62d01f0ca23b33abf27637e1",
	"window=1/prop=false": "e706469dd7acec239edb814684ca873738efacf5678e62fae4b0fb1aea98f4b1",
	"window=2/prop=true":  "06689c3d81e9f31df81239c4d5c3ba711927b6343931565b145c7dd0d8c6903c",
	"window=2/prop=false": "3fd8de3876a9cdd0fb615df0ef13147f6343d922c17056313a4557f04c664197",
	"window=3/prop=true":  "0b1b1e847e57930915f7062d02b60ea0d5591c47bbf74c697e1370a0aaf0cc21",
	"window=3/prop=false": "ef3c4b83e130acaa70529b572f2d3aa5bf213449b5b152bcd6d1cc5541645e1f",
}

func arenaSHA256(e *Embedding) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range e.Matrix().Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestMFGolden(t *testing.T) {
	g := mfFixtureGraph()
	for _, window := range []int{1, 2, 3} {
		for _, prop := range []bool{true, false} {
			key := fmt.Sprintf("window=%d/prop=%v", window, prop)
			e := MF(g, MFOptions{Dim: 16, Seed: 3, Window: window, NoSpectralPropagation: !prop, Workers: 2})
			if got := arenaSHA256(e); got != mfGolden[key] {
				t.Errorf("%s: arena sha256 %s, want %s", key, got, mfGolden[key])
			}
		}
	}
}
