package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
)

// fuzzBundle is the committed legacy (JSON layout) fixture whose
// payload files seed and host the decoder fuzzing; the three legacy
// fuzzers below target its per-file decoders.
const fuzzBundle = legacyFixtureDim3

// cloneBundleWithout copies the fuzz bundle's payload files into a
// fresh dir, dropping MANIFEST.json so corrupted bytes reach the
// decoders instead of being screened out by the integrity check — the
// decoders themselves must be panic-free on arbitrary input, because
// legacy bundles have no manifest protecting them.
func cloneBundleWithout(t *testing.T, replace string, data []byte) string {
	t.Helper()
	src := fuzzBundle
	dst := t.TempDir()
	for _, name := range []string{bundleConfigFile, bundleTextifyFile, bundleEmbeddingFile} {
		content := data
		if name != replace {
			var err error
			content, err = os.ReadFile(filepath.Join(src, name))
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dst, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// fuzzBundleFile is the shared property: feeding arbitrary bytes into
// one bundle file must never panic, and any invalid JSON must be
// rejected with an error naming that file.
func fuzzBundleFile(t *testing.T, name string, data []byte) {
	dir := cloneBundleWithout(t, name, data)
	_, err := LoadBundle(dir)
	if err == nil {
		return // decodable and consistent — fine
	}
	if !strings.Contains(err.Error(), dir) {
		t.Errorf("error does not locate the bundle %s: %v", dir, err)
	}
	if !json.Valid(data) && !strings.Contains(err.Error(), name) {
		t.Errorf("invalid JSON in %s produced an error naming some other file: %v", name, err)
	}
}

func FuzzLoadBundleConfig(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join(fuzzBundle, bundleConfigFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"formatVersion": 99}`))
	f.Add([]byte(`{"dim": -1, "formatVersion": 1}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFE, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBundleFile(t, bundleConfigFile, data)
	})
}

func FuzzLoadBundleTextify(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join(fuzzBundle, bundleTextifyFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/3])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tables": {"t": {"c": {"type": 999}}}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBundleFile(t, bundleTextifyFile, data)
	})
}

// FuzzLoadBundleEmbedding rounds out the trio: arbitrary bytes in
// embedding.tsv (not JSON — the TSV reader has its own parser) must
// never panic LoadBundle, and parse failures must name the file.
func FuzzLoadBundleEmbedding(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join(fuzzBundle, bundleEmbeddingFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte("a\t1 2\nb\t3\n"))
	f.Add([]byte("no-tab-here\n"))
	f.Add([]byte("x\tnot-a-number\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := cloneBundleWithout(t, bundleEmbeddingFile, data)
		if _, err := LoadBundle(dir); err != nil {
			if !strings.Contains(err.Error(), dir) {
				t.Errorf("error does not locate the bundle %s: %v", dir, err)
			}
		}
	})
}

// TestManifestScreensBeforeDecoding confirms the layering the fuzz
// tests sidestep: with a manifest present, corrupted payload bytes are
// rejected by the integrity check before any decoder runs.
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
	res, err := LoadBundle(fuzzBundle)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := encodeBundleV4(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(bundleMagic)+8])
	f.Add([]byte(bundleMagic))
	f.Add([]byte("LEVAHNSW not this format"))
	f.Add([]byte{})
	// Version 99 header with zero sections.
	hdr := append([]byte(bundleMagic), 99, 0, 0, 0, 0, 0, 0, 0)
	f.Add(hdr)
	// Claimed section beyond EOF.
	lying := append([]byte(bundleMagic), 4, 0, 0, 0, 1, 0, 0, 0)
	lying = append(lying, make([]byte, 24)...)
	lying[len(bundleMagic)+8+8] = 0xFF // offset 255, unaligned and out of range
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := decodeBundleV4(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
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
