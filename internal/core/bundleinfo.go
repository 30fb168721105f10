package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path/filepath"

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
// ReadBundleInfo, which only returns one for a bundle that passed its
// MANIFEST.json check; rendered by `leva bundle info`.
type BundleInfo struct {
	Dir           string               `json:"dir"`
	FormatVersion int                  `json:"formatVersion"`
	Dim           int                  `json:"dim"`
	Entities      int                  `json:"entities"`
	Columns       []BundleTableColumns `json:"columns"`
	// SymbolBytes and ArenaBytes are the sizes of bundle.bin's interned
	// symbol table and float32 vector arena sections.
	SymbolBytes int64 `json:"symbolBytes"`
	ArenaBytes  int64 `json:"arenaBytes"`
	// PayloadBytes is the size of bundle.bin (the manifest excluded).
	PayloadBytes       int64             `json:"payloadBytes"`
	Featurization      FeaturizationMode `json:"featurization"`
	MethodUsed         embed.Method      `json:"methodUsed"`
	UnseenFallbackDims int               `json:"unseenFallbackDims"`
	UnweightedFallback bool              `json:"unweightedFallback,omitempty"`
	StageCache         *CacheStats       `json:"stageCache,omitempty"`
}

// ReadBundleInfo inspects the bundle at dir: it reads bundle.bin,
// verifies it against MANIFEST.json and parses its section headers
// without constructing an Embedding. A bundle LoadBundle refuses is
// refused here with the same named errors.
func ReadBundleInfo(dir string) (*BundleInfo, error) {
	dir = filepath.Clean(dir)
	data, _, err := readBundleBin(dir, false, nil)
	if err != nil {
		return nil, fmt.Errorf("core: bundle info: %w", err)
	}
	info := &BundleInfo{Dir: dir, PayloadBytes: int64(len(data))}
	if err := fillInfoV4(info, data); err != nil {
		return nil, fmt.Errorf("core: bundle info: %s: %w", filepath.Join(dir, bundleBinFile), err)
	}
	return info, nil
}

// fillInfoV4 populates info from a bundle.bin buffer, touching only
// section headers and the JSON sections — no symbol-table validation,
// no embedding construction.
func fillInfoV4(info *BundleInfo, data []byte) error {
	secs, err := bundleSections(data)
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
