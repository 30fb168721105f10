package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
)

// fuzzBundle is the committed bundle whose bundle.bin seeds and hosts
// the decoder fuzzing: the section fuzzers below put arbitrary bytes in
// place of one part of it.
const fuzzBundle = goldenBundleFixture

func fuzzBundleBin(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(fuzzBundle, bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// isNamedBundleError reports whether err wraps one of the decoder's
// named errors — the contract for every decode failure.
func isNamedBundleError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt)
}

// fuzzBundleSections is the shared property of the section fuzzers:
// base with the sections in replace swapped for arbitrary bytes, sealed
// by a manifest over those bytes so they get past the integrity check
// and reach the decoder, must never panic LoadBundle. A rejection wraps
// a named decode error and names bundle.bin; when section (the name
// the decoder gives the one replaced JSON section) is set and its bytes
// are not valid JSON, the error names that section too.
func fuzzBundleSections(t *testing.T, base []byte, replace map[int][]byte, section string) {
	dir := t.TempDir()
	writeSealedBundle(t, dir, withSections(t, base, replace), BundleFormatVersion)
	_, err := LoadBundle(dir)
	if err == nil {
		return // decodable and consistent — fine
	}
	if !isNamedBundleError(err) {
		t.Fatalf("rejection is not a named bundle error: %v", err)
	}
	if !strings.Contains(err.Error(), filepath.Join(dir, bundleBinFile)) {
		t.Errorf("error does not name %s: %v", filepath.Join(dir, bundleBinFile), err)
	}
	for _, data := range replace {
		if section != "" && !json.Valid(data) && !strings.Contains(err.Error(), section+" section") {
			t.Errorf("invalid JSON in the %s section produced an error naming something else: %v", section, err)
		}
	}
}

// FuzzLoadBundleConfig puts arbitrary bytes in the config section (a
// JSON object: format version, dimension, featurization, method).
func FuzzLoadBundleConfig(f *testing.F) {
	base := fuzzBundleBin(f)
	secs, err := bundleSections(base)
	if err != nil {
		f.Fatal(err)
	}
	seed := secs[secConfig]
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"formatVersion": 99}`))
	f.Add([]byte(`{"dim": -1, "formatVersion": 1}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFE, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBundleSections(t, base, map[int][]byte{secConfig: data}, "config")
	})
}

// FuzzLoadBundleTextify puts arbitrary bytes in the textify section
// (the fitted textify.Model as JSON).
func FuzzLoadBundleTextify(f *testing.F) {
	base := fuzzBundleBin(f)
	secs, err := bundleSections(base)
	if err != nil {
		f.Fatal(err)
	}
	seed := secs[secTextify]
	f.Add(seed)
	f.Add(seed[:len(seed)/3])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tables": {"t": {"c": {"type": 999}}}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBundleSections(t, base, map[int][]byte{secTextify: data}, "textify")
	})
}

// FuzzLoadBundleEmbedding rounds out the trio: arbitrary bytes in the
// two binary sections the embedding is viewed from, the interned
// symbol table and the vector arena (not JSON — the decoder validates
// their structure itself).
func FuzzLoadBundleEmbedding(f *testing.F) {
	base := fuzzBundleBin(f)
	secs, err := bundleSections(base)
	if err != nil {
		f.Fatal(err)
	}
	syms, arena := secs[secSymbols], secs[secArena]
	lying := append([]byte(nil), syms...)
	binary.LittleEndian.PutUint32(lying, binary.LittleEndian.Uint32(lying)+1) // one symbol too many
	f.Add(syms, arena)
	f.Add(syms[:len(syms)/2], arena)
	f.Add(syms, arena[:len(arena)/2])
	f.Add(syms, arena[:8])
	f.Add([]byte{}, []byte{})
	f.Add(lying, arena)
	f.Fuzz(func(t *testing.T, syms, arena []byte) {
		fuzzBundleSections(t, base, map[int][]byte{secSymbols: syms, secArena: arena}, "")
	})
}

// TestManifestScreensBeforeDecoding confirms the layering the section
// fuzzers sidestep by resealing: with the manifest intact, corrupted
// payload bytes are rejected by the integrity check before any decoder
// runs.
func TestManifestScreensBeforeDecoding(t *testing.T) {
	dir := savedBundle(t)
	path := filepath.Join(dir, bundleBinFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBundle(dir)
	if err == nil || !strings.Contains(err.Error(), durable.ManifestName) {
		t.Fatalf("manifest did not screen the corrupted payload: %v", err)
	}
}

// FuzzBundleV4 feeds arbitrary bytes to the binary bundle decoder. The
// properties: it never panics; every rejection wraps exactly one of the
// named errors (ErrBadMagic, ErrVersion, ErrCorrupt); and any input it
// accepts re-encodes stably — encode(decode(input)) is a fixed point of
// decode∘encode, so a hostile-but-valid file cannot round-trip into a
// different bundle.
func FuzzBundleV4(f *testing.F) {
	valid := fuzzBundleBin(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// The fixture re-encoded by this build (a fixed point: equal bytes).
	fixture, err := decodeBundleV4(valid)
	if err != nil {
		f.Fatal(err)
	}
	current, err := encodeBundleV4(fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(current)
	f.Add(valid[:len(bundleMagic)+8])
	f.Add([]byte(bundleMagic))
	f.Add([]byte("LEVAHNSW not this format"))
	f.Add([]byte{})
	// Version 99 header with zero sections.
	hdr := append([]byte(bundleMagic), 99, 0, 0, 0, 0, 0, 0, 0)
	f.Add(hdr)
	// Claimed section beyond EOF.
	lying := append([]byte(bundleMagic), BundleFormatVersion, 0, 0, 0, 1, 0, 0, 0)
	lying = append(lying, make([]byte, 24)...)
	lying[len(bundleMagic)+8+8] = 0xFF // offset 255, unaligned and out of range
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := decodeBundleV4(data)
		if err != nil {
			if !isNamedBundleError(err) {
				t.Fatalf("rejection is not a named bundle error: %v", err)
			}
			return
		}
		enc, err := encodeBundleV4(dec)
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		dec2, err := decodeBundleV4(enc)
		if err != nil {
			t.Fatalf("re-encoded bundle failed to decode: %v", err)
		}
		enc2, err := encodeBundleV4(dec2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encode is not stable: %d vs %d bytes", len(enc), len(enc2))
		}
	})
}
