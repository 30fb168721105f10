package core

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/durable"
)

// Bundle persistence: a built Result is saved as a directory holding
// everything featurization needs — the fitted textification model, the
// embedding (interned symbol table + vector arena), the
// deployment-relevant configuration, build provenance — plus a
// MANIFEST.json integrity record. A reloaded bundle featurizes new
// rows exactly like the original — which is what shipping a Leva
// deployment to an inference service needs. The graph itself is not
// persisted; featurization only requires the embedding and tokenizer.
//
// The bundle is the durable product of the whole pipeline, so its
// lifecycle is crash-safe: SaveBundle stages every file (plus the
// manifest, written last) in a sibling directory and publishes the
// stage with one rename, and LoadBundle verifies the payload against
// the manifest before building anything over it. A crash at any point
// leaves either the previous complete bundle or the new complete
// bundle on disk — never a hybrid — and any later corruption (torn
// write, bit rot, truncation) surfaces as an error naming the damaged
// file.

// BundleFormatVersion is the on-disk format written by SaveBundle.
// History:
//
//	0 — pre-versioned bundles (no formatVersion field in config.json)
//	1 — formatVersion recorded; textify model carries column order
//	2 — MANIFEST.json integrity record (per-file SHA-256 and sizes)
//	3 — config.json records build provenance (stage-cache outcomes and
//	    the unweighted-graph fallback)
//	4 — single binary payload file bundle.bin (magic + section table:
//	    config, column order, interned symbols, vector arena,
//	    provenance) replacing the three JSON/TSV files (config.json,
//	    textify.json, embedding.tsv); the load path builds zero-copy
//	    views over one buffer instead of decoding per-entity records
//	5 — added an optional int8 quant section (id 7), since removed
//	6 — the arena (section 5) stores float32 instead of float64,
//	    halving it: every embedding is rounded to float32 once, when
//	    it is built
//
// LoadBundle reads version 6 and nothing else: versions 0–5 are
// refused, as is anything newer or any bundle without a MANIFEST.json
// that lists bundle.bin. The fix for a refused bundle is a rebuild
// (rebuildHint).
const BundleFormatVersion = 6

// rebuildHint ends every refusal of a bundle this build does not read:
// the fix is to rebuild it from its data.
const rebuildHint = "rebuild the bundle with `leva embed -bundle`"

// SaveBundle writes the deployment to dir (created if needed) in the
// current binary format, crash-safely: the bundle is staged in a
// sibling directory — bundle.bin written atomically, the manifest last
// — and published with one rename. If dir already holds a bundle,
// readers observe the old complete bundle until the instant the new
// one replaces it.
func (r *Result) SaveBundle(dir string) error {
	return r.saveBundle(durable.OS(), dir)
}

// saveBundle is SaveBundle over an injectable filesystem — the seam the
// fault-injection suite uses to prove crash safety. The bundle is
// encoded up front, so a serialization failure never touches the disk,
// then published as a one-file sealed directory (durable.PublishDir).
func (r *Result) saveBundle(fsys durable.FS, dir string) error {
	data, err := encodeBundleV4(r)
	if err != nil {
		return err
	}
	if err := durable.PublishDir(fsys, dir, BundleFormatVersion, map[string][]byte{bundleBinFile: data}); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	return nil
}

// LoadOptions tunes LoadBundleOpts.
type LoadOptions struct {
	// Warn receives human-readable warnings for conditions that do not
	// prevent loading: a crashed publish that was rolled back, or an
	// mmap fallback. nil discards them.
	Warn func(msg string)
	// MMap memory-maps bundle.bin instead of reading it, when the
	// platform supports it (see durable.MapSupported). The arena and
	// symbol views then point into the mapping. Verifying the bundle
	// against its manifest hashes every byte through it without keeping
	// the pages (durable.LoadVerified), so after a load only the pages
	// decoding and serving touch are resident.
	MMap bool
}

// LoadBundle restores a deployment saved by SaveBundle. The returned
// Result has no Graph (featurization does not need one); Featurize
// works for both previously-embedded rows (by their row keys) and new
// rows (composed from value-node vectors with graphRow -1). Every error
// names the bundle file that is missing or corrupt.
//
// bundle.bin is verified against the bundle's MANIFEST.json before
// anything is built over it, and a publish interrupted between its two
// renames is repaired on the way in. A directory without a manifest,
// or whose manifest does not seal a version-6 bundle.bin, is refused
// (see readBundleBin). Use LoadBundleOpts to observe the non-fatal
// conditions LoadOptions.Warn reports.
func LoadBundle(dir string) (*Result, error) {
	return LoadBundleOpts(dir, LoadOptions{})
}

// LoadBundleOpts is LoadBundle with explicit options.
func LoadBundleOpts(dir string, opts LoadOptions) (*Result, error) {
	warn := opts.Warn
	if warn == nil {
		warn = func(string) {}
	}
	dir = filepath.Clean(dir)
	recovered, err := durable.RecoverDir(durable.OS(), dir)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	if recovered {
		warn(fmt.Sprintf("core: load bundle: %s was missing after an interrupted save; restored the previous complete bundle from %s%s", dir, dir, durable.OldSuffix))
	}
	data, mapped, err := readBundleBin(dir, opts.MMap, warn)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	res, err := decodeBundleV4(data)
	if err != nil {
		if mapped {
			_ = durable.Unmap(data)
		}
		return nil, fmt.Errorf("core: load bundle: %s: %w", filepath.Join(dir, bundleBinFile), err)
	}
	if mapped {
		res.mapped = data
	}
	return res, nil
}

// readBundleBin returns the bytes of dir's bundle.bin, read or (with
// mmap) mapped through durable.LoadVerified, once its MANIFEST.json
// shows a bundle this build reads — format version 6, listing
// bundle.bin — and the bytes match it. A missing manifest wraps
// durable.ErrNoManifest, any other version ErrVersion, and a manifest
// without bundle.bin ErrCorrupt; each of those errors names the
// directory or the manifest and ends with rebuildHint. mapped reports
// a mapping the caller owns.
func readBundleBin(dir string, mmap bool, warn func(string)) (data []byte, mapped bool, err error) {
	manifest, err := durable.ReadManifest(dir)
	if errors.Is(err, durable.ErrNoManifest) {
		return nil, false, fmt.Errorf("%w; %s", err, rebuildHint)
	}
	if err != nil {
		return nil, false, err
	}
	manPath := filepath.Join(dir, durable.ManifestName)
	if manifest.FormatVersion != BundleFormatVersion {
		return nil, false, fmt.Errorf("%w: %s records format version %d, this build reads version %d; %s",
			ErrVersion, manPath, manifest.FormatVersion, BundleFormatVersion, rebuildHint)
	}
	if manifest.Entry(bundleBinFile) == nil {
		return nil, false, fmt.Errorf("%w: %s does not list %s; %s", ErrCorrupt, manPath, bundleBinFile, rebuildHint)
	}
	return durable.LoadVerified(filepath.Join(dir, bundleBinFile), manifest, mmap, warn)
}
