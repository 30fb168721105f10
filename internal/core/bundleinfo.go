package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/embed"
)

// BundleTableColumns is one table's fitted column order, as recorded in
// a bundle.
type BundleTableColumns struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

// BundleInfo describes a saved bundle without loading it for serving:
// what format it is, what it embeds, how large its payload sections
// are, and how the build that produced it was satisfied. Produced by
// ReadBundleInfo; rendered by `leva bundle info`.
type BundleInfo struct {
	Dir           string `json:"dir"`
	FormatVersion int    `json:"formatVersion"`
	// Verified reports whether the payload passed its MANIFEST.json
	// integrity check (false for pre-durability bundles).
	Verified bool                 `json:"verified"`
	Dim      int                  `json:"dim"`
	Entities int                  `json:"entities"`
	Columns  []BundleTableColumns `json:"columns"`
	// SymbolBytes and ArenaBytes are the sizes of the interned symbol
	// table and the vector arena. For legacy bundles both are the
	// in-memory equivalents reconstructed from the TSV payload.
	SymbolBytes int64 `json:"symbolBytes"`
	ArenaBytes  int64 `json:"arenaBytes"`
	// PayloadBytes is the total on-disk size of the payload files
	// (excluding the manifest).
	PayloadBytes       int64             `json:"payloadBytes"`
	Featurization      FeaturizationMode `json:"featurization"`
	MethodUsed         embed.Method      `json:"methodUsed"`
	UnseenFallbackDims int               `json:"unseenFallbackDims"`
	UnweightedFallback bool              `json:"unweightedFallback,omitempty"`
	StageCache         *CacheStats       `json:"stageCache,omitempty"`
}

// ReadBundleInfo inspects the bundle at dir. For binary bundles it
// parses section headers without constructing an Embedding; for legacy
// JSON bundles it falls back to a full load. Corruption surfaces with
// the same named errors as LoadBundle.
func ReadBundleInfo(dir string) (*BundleInfo, error) {
	dir = filepath.Clean(dir)
	info := &BundleInfo{Dir: dir}

	manifest, err := durable.ReadManifest(dir)
	switch {
	case errors.Is(err, durable.ErrNoManifest):
		manifest = nil
	case err != nil:
		return nil, fmt.Errorf("core: bundle info: %w", err)
	}

	binPath := filepath.Join(dir, bundleBinFile)
	data, err := os.ReadFile(binPath)
	if err == nil {
		if manifest != nil {
			if verr := manifest.VerifyData(bundleBinFile, data); verr != nil {
				return nil, fmt.Errorf("core: bundle info: %s: %w", dir, verr)
			}
			info.Verified = true
		}
		if err := fillInfoV4(info, data); err != nil {
			return nil, fmt.Errorf("core: bundle info: %s: %w", binPath, err)
		}
		info.PayloadBytes = int64(len(data))
		return info, nil
	}
	if !os.IsNotExist(err) {
		return nil, fmt.Errorf("core: bundle info: %w", err)
	}

	// Legacy JSON bundle: load it and measure the reconstruction.
	res, err := loadBundleLegacy(dir, manifest)
	if err != nil {
		return nil, err
	}
	info.Verified = manifest != nil
	info.FormatVersion = res.BundleFormat
	info.Dim = res.Embedding.Dim
	info.Entities = res.Embedding.Len()
	st := res.Embedding.Symbols()
	info.SymbolBytes = int64(len(st.Blob()) + 4*(st.Len()+1) + 4*st.Len())
	info.ArenaBytes = int64(8 * len(res.Embedding.Matrix().Data))
	for _, tb := range res.Textifier.Tables() {
		info.Columns = append(info.Columns, BundleTableColumns{Table: tb, Columns: res.Textifier.Columns(tb)})
	}
	info.Featurization = res.Config.Featurization
	info.MethodUsed = res.MethodUsed
	info.UnseenFallbackDims = res.Config.UnseenFallbackDims
	info.UnweightedFallback = res.UnweightedFallback
	cache := res.Timings.Cache
	info.StageCache = &cache
	for _, name := range []string{bundleConfigFile, bundleTextifyFile, bundleEmbeddingFile} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			info.PayloadBytes += fi.Size()
		}
	}
	return info, nil
}

// fillInfoV4 populates info from a bundle.bin buffer, touching only
// section headers and the JSON sections — no symbol-table validation,
// no embedding construction.
func fillInfoV4(info *BundleInfo, data []byte) error {
	secs, _, err := bundleSections(data)
	if err != nil {
		return err
	}
	cfgData, err := requireSection(secs, secConfig, "config")
	if err != nil {
		return err
	}
	var cfg v4Config
	if err := json.Unmarshal(cfgData, &cfg); err != nil {
		return fmt.Errorf("%w: config section: %v", ErrCorrupt, err)
	}
	info.FormatVersion = cfg.FormatVersion
	info.Dim = cfg.Dim
	info.Featurization = cfg.Featurization
	info.MethodUsed = cfg.MethodUsed
	info.UnseenFallbackDims = cfg.UnseenFallbackDims

	if colsData, ok := secs[secColumns]; ok {
		cols, err := decodeColumns(colsData)
		if err != nil {
			return err
		}
		info.Columns = cols
	}
	symsData, err := requireSection(secs, secSymbols, "symbols")
	if err != nil {
		return err
	}
	if len(symsData) < 8 {
		return fmt.Errorf("%w: symbols section is %d bytes", ErrCorrupt, len(symsData))
	}
	info.Entities = int(binary.LittleEndian.Uint32(symsData))
	info.SymbolBytes = int64(len(symsData))
	arenaData, err := requireSection(secs, secArena, "arena")
	if err != nil {
		return err
	}
	info.ArenaBytes = int64(len(arenaData))
	if provData, ok := secs[secProvenance]; ok {
		var prov v4Provenance
		if err := json.Unmarshal(provData, &prov); err != nil {
			return fmt.Errorf("%w: provenance section: %v", ErrCorrupt, err)
		}
		info.StageCache = prov.StageCache
		info.UnweightedFallback = prov.UnweightedFallback
	}
	return nil
}
