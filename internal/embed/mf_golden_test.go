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

// mfGolden pins MF's float64 factorization bits on mfFixtureGraph,
// before NewEmbedding rounds them: the SHA-256 of mfFactorize's
// little-endian float64 bits, keyed by window and propagation. A
// kernel rewrite (the fused windowed-PMI pass, the in-place Chebyshev
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

// mfArenaGolden pins the float32 arena MF stores for the same cases:
// the SHA-256 of its little-endian float32 bits. It moves only if the
// factorization above moves or the rounding to float32 changes.
var mfArenaGolden = map[string]string{
	"window=1/prop=true":  "01943e0b4cc108e2a6640d3dfa1f3c55d9118323396f8324030bb1f9474104a2",
	"window=1/prop=false": "fe42217c16bd4ab05921ebe99b6c7b851d6bc1488ec5f102bc5d616cf3dc51af",
	"window=2/prop=true":  "d3326ca62f6804468f9305bd9167d2cfc3765ea7f88446cf0bb7176bcd995e64",
	"window=2/prop=false": "f734cdc56b03e74bb4da45822db145a6bd9e3b996f2a6fa5c601778d05b706e0",
	"window=3/prop=true":  "f08a59971cb31c7cd20ba9e8653c558523e71f4a81c0ddacd0888ae320c13949",
	"window=3/prop=false": "552f2a38921cf345fd5ec2c5febf80ef8a247878438264af6218d85bce71a549",
}

func TestMFGolden(t *testing.T) {
	g := mfFixtureGraph()
	for _, window := range []int{1, 2, 3} {
		for _, prop := range []bool{true, false} {
			key := fmt.Sprintf("window=%d/prop=%v", window, prop)
			opts := MFOptions{Dim: 16, Seed: 3, Window: window, NoSpectralPropagation: !prop, Workers: 2}
			_, m := mfFactorize(g, opts)
			h := sha256.New()
			var b [8]byte
			for _, v := range m.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != mfGolden[key] {
				t.Errorf("%s: factorization sha256 %s, want %s", key, got, mfGolden[key])
			}

			h.Reset()
			for _, v := range MF(g, opts).Arena() {
				binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
				h.Write(b[:4])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != mfArenaGolden[key] {
				t.Errorf("%s: arena sha256 %s, want %s", key, got, mfArenaGolden[key])
			}
		}
	}
}
