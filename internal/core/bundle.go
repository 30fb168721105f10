package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/embed"
	"repro/internal/textify"
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

// Legacy (format ≤ 3) payload file names. Legacy bundles are read but
// never written; testdata/ holds version-3 fixtures for the read path.
// Version-4 bundles hold one payload file, bundle.bin (see bundlev4.go).
const (
	bundleConfigFile    = "config.json"
	bundleTextifyFile   = "textify.json"
	bundleEmbeddingFile = "embedding.tsv"
)

// BundleFormatVersion is the on-disk format written by SaveBundle.
// History:
//
//	0 — pre-versioned bundles (no formatVersion field in config.json)
//	1 — formatVersion recorded; textify model carries column order
//	2 — MANIFEST.json integrity record (per-file SHA-256 and sizes);
//	    payload file formats are unchanged, so version-1 readers of the
//	    three payload files would still decode them — the bump records
//	    that writes are now staged and manifest-sealed
//	3 — config.json records build provenance: the stage-cache outcomes
//	    of the build (stageCache) and whether the unweighted-graph
//	    fallback fired (unweightedFallback); older readers that ignore
//	    unknown fields would still decode everything else
//	4 — single binary payload file bundle.bin (magic + section table:
//	    config, column order, interned symbols, vector arena,
//	    provenance) replacing the three JSON/TSV files; the load path
//	    builds zero-copy views over one buffer instead of decoding
//	    per-entity records
//	5 — added an optional int8 quant section (id 7). Nothing reads it
//	    any more and nothing writes it: `levad -quantize` quantizes the
//	    index it loads. A version-5 file is a version-4 file with the
//	    new version number, or, if an older build wrote it, with an id 7
//	    section that readers ignore. Version-4 files still load
//	    unchanged
//
// LoadBundle reads every version up to the current one and rejects
// anything newer or unrecognized instead of decoding garbage. Legacy
// JSON bundles (versions 0–3) still load, reported through the warning
// hook; SaveBundle always writes the current version, so saving a
// loaded legacy bundle upgrades it.
const BundleFormatVersion = 5

// bundleConfig is the legacy (format ≤ 3) config.json schema: the
// subset of Config that affects deployment, plus build provenance.
type bundleConfig struct {
	FormatVersion      int               `json:"formatVersion"`
	Dim                int               `json:"dim"`
	Featurization      FeaturizationMode `json:"featurization"`
	UnseenFallbackDims int               `json:"unseenFallbackDims"`
	MethodUsed         embed.Method      `json:"methodUsed"`
	// StageCache preserves how the build that produced this bundle was
	// satisfied (per-stage cached/partial/rebuilt), so serving
	// infrastructure can report what a refreshed bundle actually
	// recomputed. Absent in bundles older than version 3.
	StageCache *CacheStats `json:"stageCache,omitempty"`
	// UnweightedFallback records the build's memory-budget graph
	// decision (paper Section 3.2).
	UnweightedFallback bool `json:"unweightedFallback,omitempty"`
}

// SaveBundle writes the deployment to dir (created if needed) in the
// current binary format, crash-safely: the bundle is staged in a
// sibling directory — bundle.bin written atomically, the manifest last
// — and published with one rename. If dir already holds a bundle,
// readers observe the old complete bundle until the instant the new
// one replaces it. Saving a Result loaded from a legacy JSON bundle
// rewrites it forward into the binary format.
func (r *Result) SaveBundle(dir string) error {
	return r.saveBundle(durable.OS(), dir)
}

// saveBundle is SaveBundle over an injectable filesystem — the seam the
// fault-injection suite uses to prove crash safety. It runs the publish
// protocol: recover any interrupted previous publish, stage bundle.bin
// in a sibling directory, seal the stage with the manifest (written
// last), and swap the stage in with one rename.
func (r *Result) saveBundle(fsys durable.FS, dir string) error {
	// Encode up front: a serialization failure must not touch the disk.
	data, err := encodeBundleV4(r)
	if err != nil {
		return err
	}
	dir = filepath.Clean(dir)

	// If a previous publish crashed between its two renames, restore
	// the old bundle first so "replace the existing bundle" below has a
	// consistent starting point.
	if _, err := durable.RecoverDir(fsys, dir); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}

	staging := dir + durable.StagingSuffix
	if err := fsys.RemoveAll(staging); err != nil {
		return fmt.Errorf("core: save bundle: clear staging: %w", err)
	}
	if err := fsys.MkdirAll(staging, 0o755); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	if err := durable.WriteFile(fsys, filepath.Join(staging, bundleBinFile), data); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	manifest := &durable.Manifest{FormatVersion: BundleFormatVersion}
	manifest.Add(bundleBinFile, data)
	// The manifest seals the stage: it exists only once the payload is
	// durably in place.
	if err := durable.WriteManifest(fsys, staging, manifest); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	if err := durable.SwapDir(fsys, staging, dir); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	return nil
}

// LoadOptions tunes LoadBundleOpts.
type LoadOptions struct {
	// Warn receives human-readable warnings for conditions that do not
	// prevent loading: a legacy JSON bundle, a bundle with no integrity
	// manifest, a crashed publish that was rolled back, or an mmap
	// fallback. nil discards them.
	Warn func(msg string)
	// MMap memory-maps bundle.bin instead of reading it, when the
	// platform supports it (see durable.MapSupported). Vector and
	// symbol views then point into the mapping. Verifying a sealed
	// bundle against its manifest hashes every byte through it without
	// keeping the pages (durable.LoadVerified), so after a load only the
	// pages decoding and serving touch are resident. Ignored for legacy
	// JSON bundles.
	MMap bool
}

// LoadBundle restores a deployment saved by SaveBundle. The returned
// Result has no Graph (featurization does not need one); Featurize
// works for both previously-embedded rows (by their row keys) and new
// rows (composed from value-node vectors with graphRow -1). Every error
// names the bundle file that is missing or corrupt.
//
// The payload is verified against the bundle's MANIFEST.json before
// anything is built over it, and a publish interrupted between its two
// renames is repaired on the way in. Non-fatal conditions (legacy
// bundle, repaired publish) are silently tolerated here; use
// LoadBundleWarn or LoadBundleOpts to observe them.
func LoadBundle(dir string) (*Result, error) {
	return LoadBundleOpts(dir, LoadOptions{})
}

// LoadBundleWarn is LoadBundle with a warning hook; see
// LoadOptions.Warn. warn may be nil.
func LoadBundleWarn(dir string, warn func(msg string)) (*Result, error) {
	return LoadBundleOpts(dir, LoadOptions{Warn: warn})
}

// LoadBundleOpts is LoadBundle with explicit options.
func LoadBundleOpts(dir string, opts LoadOptions) (*Result, error) {
	warn := opts.Warn
	if warn == nil {
		warn = func(string) {}
	}
	dir = filepath.Clean(dir)
	if recovered, err := durable.RecoverDir(durable.OS(), dir); err == nil && recovered {
		warn(fmt.Sprintf("core: load bundle: %s was missing after an interrupted save; restored the previous complete bundle from %s%s", dir, dir, durable.OldSuffix))
	}

	manifest, err := durable.ReadManifest(dir)
	switch {
	case errors.Is(err, durable.ErrNoManifest):
		// No integrity record. A bundle.bin alongside means a v4 bundle
		// whose manifest went missing — load it unverified, loudly; no
		// bundle.bin means a legacy pre-durability JSON bundle.
		if _, statErr := os.Stat(filepath.Join(dir, bundleBinFile)); statErr == nil {
			warn(fmt.Sprintf("core: load bundle: %s has no %s; loading %s without integrity verification", dir, durable.ManifestName, bundleBinFile))
			return loadBundleBin(dir, nil, opts, warn)
		}
		warn(fmt.Sprintf("core: load bundle: %s has no %s (legacy pre-durability bundle); loading without integrity verification", dir, durable.ManifestName))
		return loadBundleLegacy(dir, nil)
	case err != nil:
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}

	if manifest.FormatVersion < 0 || manifest.FormatVersion > BundleFormatVersion {
		return nil, fmt.Errorf("core: load bundle: %s records format version %d; this build reads versions 0 through %d (rebuild the bundle or upgrade)",
			filepath.Join(dir, durable.ManifestName), manifest.FormatVersion, BundleFormatVersion)
	}
	if manifest.Entry(bundleBinFile) != nil {
		return loadBundleBin(dir, manifest, opts, warn)
	}
	warn(fmt.Sprintf("core: load bundle: %s is a legacy JSON bundle (format version %d); saving it rewrites it into the binary format", dir, manifest.FormatVersion))
	return loadBundleLegacy(dir, manifest)
}

// loadBundleBin is the version-4 load path: bundle.bin is read (or
// mapped) into one buffer, verified against the manifest as a whole,
// and the Result is built as views over that buffer — O(read + hash),
// independent of entity count.
func loadBundleBin(dir string, manifest *durable.Manifest, opts LoadOptions, warn func(string)) (*Result, error) {
	path := filepath.Join(dir, bundleBinFile)
	data, mapped, err, checkErr := durable.LoadVerified(path, manifest, opts.MMap, warn)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	if checkErr != nil {
		return nil, fmt.Errorf("core: load bundle: %s: %w", dir, checkErr)
	}
	res, err := decodeBundleV4(data)
	if err != nil {
		if mapped {
			_ = durable.Unmap(data)
		}
		return nil, fmt.Errorf("core: load bundle: %s: %w", path, err)
	}
	if mapped {
		res.mapped = data
	}
	return res, nil
}

// loadBundleLegacy is the format ≤ 3 load path over the three JSON/TSV
// payload files. manifest may be nil (pre-durability bundle); when
// present every listed file is verified before decoding.
func loadBundleLegacy(dir string, manifest *durable.Manifest) (*Result, error) {
	if manifest != nil {
		if _, err := durable.VerifyDir(dir); err != nil {
			return nil, fmt.Errorf("core: load bundle: %w", err)
		}
		for _, name := range []string{bundleConfigFile, bundleTextifyFile, bundleEmbeddingFile} {
			if manifest.Entry(name) == nil {
				return nil, fmt.Errorf("core: load bundle: %s does not list %s; the bundle is incomplete",
					filepath.Join(dir, durable.ManifestName), name)
			}
		}
	}

	cfgPath := filepath.Join(dir, bundleConfigFile)
	cfgData, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	var cfg bundleConfig
	if err := json.Unmarshal(cfgData, &cfg); err != nil {
		return nil, fmt.Errorf("core: load bundle: parse %s: %w", cfgPath, err)
	}
	if cfg.FormatVersion < 0 || cfg.FormatVersion > BundleFormatVersion {
		return nil, fmt.Errorf("core: load bundle: %s has format version %d; this build reads versions 0 through %d (rebuild the bundle or upgrade)",
			cfgPath, cfg.FormatVersion, BundleFormatVersion)
	}
	modelPath := filepath.Join(dir, bundleTextifyFile)
	modelData, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	model := &textify.Model{}
	if err := json.Unmarshal(modelData, model); err != nil {
		return nil, fmt.Errorf("core: load bundle: parse %s: %w", modelPath, err)
	}
	embPath := filepath.Join(dir, bundleEmbeddingFile)
	f, err := os.Open(embPath)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	defer f.Close()
	e, err := embed.ReadTSV(f)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: parse %s: %w", embPath, err)
	}
	if e.Dim != cfg.Dim {
		return nil, fmt.Errorf("core: load bundle %s: dim mismatch: embedding %d, config %d", dir, e.Dim, cfg.Dim)
	}
	res := &Result{
		Embedding:          e,
		Textifier:          model,
		MethodUsed:         cfg.MethodUsed,
		UnweightedFallback: cfg.UnweightedFallback,
		BundleFormat:       cfg.FormatVersion,
		Config: Config{
			Dim:                cfg.Dim,
			Featurization:      cfg.Featurization,
			UnseenFallbackDims: cfg.UnseenFallbackDims,
			Method:             cfg.MethodUsed,
		},
	}
	if cfg.StageCache != nil {
		res.Timings.Cache = *cfg.StageCache
	}
	return res, nil
}
