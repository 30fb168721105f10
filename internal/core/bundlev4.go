package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/durable"
	"repro/internal/embed"
	"repro/internal/textify"
)

// Binary bundle format, version 6.
//
// A binary bundle directory holds one payload file, bundle.bin,
// sealed by the durable MANIFEST.json protocol. The file is designed
// to be *viewed*, not decoded: the symbol table and the vector arena
// are stored exactly as the in-memory Embedding wants them, so
// LoadBundle reads (or mmaps) the file into one buffer, verifies it
// against the manifest, and builds slice views — the only per-entity
// work on the load path is the symbol table's structural validation.
//
// bundle.bin layout (all integers little-endian):
//
//	magic         8 bytes  "LEVABNDL"
//	version       u32      6
//	sectionCount  u32
//	section table sectionCount × { id u32, reserved u32,
//	                               offset u64, length u64 }
//	sections      each starting at an 8-byte-aligned offset,
//	              zero padding between
//
// Section ids (unknown ids are ignored, for forward compatibility):
//
//	1 config      JSON: formatVersion, dim, featurization,
//	              unseenFallbackDims, methodUsed
//	2 columns     fitted column order: u32 tableCount, then per table
//	              (sorted by name) str tableName, u32 colCount, str...
//	              (str = u32 byte length + bytes)
//	3 textify     JSON: the fitted textify.Model
//	4 symbols     interned entity names: u32 n, u32 blobLen,
//	              offsets (n+1)×u32, sortedIds n×u32 (lexicographic
//	              permutation), blob bytes (insertion order)
//	5 arena       u32 dim, u32 n, then n×dim little-endian float32
//	              bits, row-major, row i = vector of symbol i; the 8-byte
//	              header keeps the data 8-byte aligned
//	6 provenance  JSON: stageCache, unweightedFallback
//	7 reserved    an int8 copy of the arena, written by builds before
//	              the quant section was removed; ignored on read like
//	              any unknown id
//
// A reader accepts version 6 alone; a file of any other version is
// refused with ErrVersion and rebuildHint, as the manifest gate refuses
// its MANIFEST.json. Encode is deterministic: equal Results produce
// byte-identical files, and encode(decode(encode(x))) == encode(x).

const (
	bundleBinFile = "bundle.bin"
	bundleMagic   = "LEVABNDL"

	secConfig     = 1
	secColumns    = 2
	secTextify    = 3
	secSymbols    = 4
	secArena      = 5
	secProvenance = 6

	// maxSections bounds what a lying header can claim before the
	// per-entry bounds checks kick in.
	maxSections = 64
)

// Named decode errors. Every failure of decodeBundleV4 wraps exactly
// one of these; the decoder never panics on hostile input.
var (
	// ErrBadMagic marks a file that is not a binary bundle at all.
	ErrBadMagic = errors.New("core: not a binary bundle file (bad magic)")
	// ErrVersion marks a bundle written by a different format revision.
	ErrVersion = errors.New("core: unsupported bundle format version")
	// ErrCorrupt marks a truncated or internally inconsistent bundle.
	ErrCorrupt = errors.New("core: corrupt or truncated bundle")
)

// v4Config is the config section: the subset of Config that affects
// deployment. Provenance lives in its own section.
type v4Config struct {
	FormatVersion      int               `json:"formatVersion"`
	Dim                int               `json:"dim"`
	Featurization      FeaturizationMode `json:"featurization"`
	UnseenFallbackDims int               `json:"unseenFallbackDims"`
	MethodUsed         embed.Method      `json:"methodUsed"`
}

// v4Provenance is the provenance section: how the build that produced
// this bundle was satisfied.
type v4Provenance struct {
	StageCache         *CacheStats `json:"stageCache,omitempty"`
	UnweightedFallback bool        `json:"unweightedFallback,omitempty"`
}

// appendSection pads buf to 8 bytes, appends payload, and records the
// section in the table.
type sectionWriter struct {
	buf   []byte
	table []sectionEntry
}

type sectionEntry struct {
	id, off, length uint64
}

func (w *sectionWriter) add(id int, payload []byte) {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
	w.table = append(w.table, sectionEntry{uint64(id), uint64(len(w.buf)), uint64(len(payload))})
	w.buf = append(w.buf, payload...)
}

// encodeBundleV4 serializes r as a bundle.bin at the current format
// version. Output is byte-identical for equal Results.
func encodeBundleV4(r *Result) ([]byte, error) {
	cfgData, err := json.Marshal(v4Config{
		FormatVersion:      BundleFormatVersion,
		Dim:                r.Embedding.Dim,
		Featurization:      r.Config.Featurization,
		UnseenFallbackDims: r.Config.UnseenFallbackDims,
		MethodUsed:         r.MethodUsed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: marshal bundle config: %w", err)
	}
	modelData, err := json.Marshal(r.Textifier)
	if err != nil {
		return nil, fmt.Errorf("core: marshal textify model: %w", err)
	}
	stageCache := r.Timings.Cache
	provData, err := json.Marshal(v4Provenance{
		StageCache:         &stageCache,
		UnweightedFallback: r.UnweightedFallback,
	})
	if err != nil {
		return nil, fmt.Errorf("core: marshal bundle provenance: %w", err)
	}

	// Columns: the fitted order per table, duplicated out of the model
	// so `leva bundle info` (and any non-Go reader) can answer "what
	// rows does this bundle featurize" without decoding the model.
	var cols []byte
	tables := r.Textifier.Tables()
	cols = binary.LittleEndian.AppendUint32(cols, uint32(len(tables)))
	for _, tb := range tables {
		cols = appendStr(cols, tb)
		names := r.Textifier.Columns(tb)
		cols = binary.LittleEndian.AppendUint32(cols, uint32(len(names)))
		for _, c := range names {
			cols = appendStr(cols, c)
		}
	}

	syms, arena := encodeEmbeddingSections(r.Embedding)

	const sections = 6
	w := &sectionWriter{}
	headerLen := len(bundleMagic) + 4 + 4 + sections*24
	w.buf = make([]byte, headerLen, headerLen+len(cfgData)+len(cols)+len(modelData)+len(syms)+len(arena)+len(provData)+64)
	w.add(secConfig, cfgData)
	w.add(secColumns, cols)
	w.add(secTextify, modelData)
	w.add(secSymbols, syms)
	w.add(secArena, arena)
	w.add(secProvenance, provData)

	h := w.buf[:0]
	h = append(h, bundleMagic...)
	h = binary.LittleEndian.AppendUint32(h, BundleFormatVersion)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(w.table)))
	for _, e := range w.table {
		h = binary.LittleEndian.AppendUint32(h, uint32(e.id))
		h = binary.LittleEndian.AppendUint32(h, 0)
		h = binary.LittleEndian.AppendUint64(h, e.off)
		h = binary.LittleEndian.AppendUint64(h, e.length)
	}
	if len(h) != headerLen {
		return nil, fmt.Errorf("core: bundle header is %d bytes, want %d", len(h), headerLen)
	}
	return w.buf, nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// bundleSections parses the header and section table of a bundle.bin
// buffer of version BundleFormatVersion, returning section id → payload
// view. Shared by the full decoder and the cheap ReadBundleInfo path.
func bundleSections(data []byte) (map[int][]byte, error) {
	if len(data) < len(bundleMagic) || string(data[:len(bundleMagic)]) != bundleMagic {
		return nil, ErrBadMagic
	}
	if len(data) < len(bundleMagic)+8 {
		return nil, fmt.Errorf("%w: %d-byte file has no header", ErrCorrupt, len(data))
	}
	if v := binary.LittleEndian.Uint32(data[len(bundleMagic):]); v != BundleFormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d; %s",
			ErrVersion, v, BundleFormatVersion, rebuildHint)
	}
	count := int(binary.LittleEndian.Uint32(data[len(bundleMagic)+4:]))
	if count < 0 || count > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, count)
	}
	tableOff := len(bundleMagic) + 8
	if len(data)-tableOff < count*24 {
		return nil, fmt.Errorf("%w: section table truncated", ErrCorrupt)
	}
	secs := make(map[int][]byte, count)
	for i := 0; i < count; i++ {
		e := data[tableOff+i*24:]
		id := int(binary.LittleEndian.Uint32(e))
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("%w: section %d starts at unaligned offset %d", ErrCorrupt, id, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d+%d) beyond the %d-byte file",
				ErrCorrupt, id, off, off, length, len(data))
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section id %d", ErrCorrupt, id)
		}
		secs[id] = data[off : off+length]
	}
	return secs, nil
}

func requireSection(secs map[int][]byte, id int, name string) ([]byte, error) {
	s, ok := secs[id]
	if !ok {
		return nil, fmt.Errorf("%w: missing %s section (id %d)", ErrCorrupt, name, id)
	}
	return s, nil
}

// decodeBundleV4 builds a Result over a bundle.bin buffer. The buffer
// is retained by the Result (symbol blob and vector arena are views
// into it) and must not be mutated afterward — which is also why every
// structural invariant is validated here: a view over hostile bytes
// must be impossible to construct. Failures wrap ErrBadMagic,
// ErrVersion, or ErrCorrupt; the decoder never panics.
func decodeBundleV4(data []byte) (*Result, error) {
	secs, err := bundleSections(data)
	if err != nil {
		return nil, err
	}

	cfgData, err := requireSection(secs, secConfig, "config")
	if err != nil {
		return nil, err
	}
	var cfg v4Config
	if err := json.Unmarshal(cfgData, &cfg); err != nil {
		return nil, fmt.Errorf("%w: config section: %v", ErrCorrupt, err)
	}
	if cfg.FormatVersion != BundleFormatVersion {
		return nil, fmt.Errorf("%w: config records format version %d inside a version-%d file",
			ErrVersion, cfg.FormatVersion, BundleFormatVersion)
	}
	if cfg.Dim < 1 || cfg.Dim > 1<<20 {
		return nil, fmt.Errorf("%w: implausible dimension %d", ErrCorrupt, cfg.Dim)
	}

	modelData, err := requireSection(secs, secTextify, "textify")
	if err != nil {
		return nil, err
	}
	model := &textify.Model{}
	if err := json.Unmarshal(modelData, model); err != nil {
		return nil, fmt.Errorf("%w: textify section: %v", ErrCorrupt, err)
	}

	symsData, err := requireSection(secs, secSymbols, "symbols")
	if err != nil {
		return nil, err
	}
	arenaData, err := requireSection(secs, secArena, "arena")
	if err != nil {
		return nil, err
	}
	e, err := decodeEmbeddingSections(symsData, arenaData, cfg.Dim)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Embedding:    e,
		Textifier:    model,
		MethodUsed:   cfg.MethodUsed,
		BundleFormat: BundleFormatVersion,
		Config: Config{
			Dim:                cfg.Dim,
			Featurization:      cfg.Featurization,
			UnseenFallbackDims: cfg.UnseenFallbackDims,
			Method:             cfg.MethodUsed,
		},
	}
	if provData, ok := secs[secProvenance]; ok {
		var prov v4Provenance
		if err := json.Unmarshal(provData, &prov); err != nil {
			return nil, fmt.Errorf("%w: provenance section: %v", ErrCorrupt, err)
		}
		if prov.StageCache != nil {
			res.Timings.Cache = *prov.StageCache
		}
		res.UnweightedFallback = prov.UnweightedFallback
	}
	// The columns section is informational (the model carries the
	// fitted order); it is validated by ReadBundleInfo, not here.
	return res, nil
}

// encodeEmbeddingSections serializes an embedding as the payloads of
// the symbols and arena sections: the interned name table and the
// float32 vector arena, both verbatim. The stage cache stores an
// embedding as exactly these two payloads too.
func encodeEmbeddingSections(e *embed.Embedding) (syms, arena []byte) {
	st := e.Symbols()
	n := st.Len()
	syms = make([]byte, 0, 8+4*(n+1)+4*n+len(st.Blob()))
	syms = binary.LittleEndian.AppendUint32(syms, uint32(n))
	syms = binary.LittleEndian.AppendUint32(syms, uint32(len(st.Blob())))
	for _, off := range st.Offsets() {
		syms = binary.LittleEndian.AppendUint32(syms, off)
	}
	for _, id := range st.SortedIDs() {
		syms = binary.LittleEndian.AppendUint32(syms, uint32(id))
	}
	syms = append(syms, st.Blob()...)

	data := e.Arena()
	arena = make([]byte, 0, 8+4*len(data))
	arena = binary.LittleEndian.AppendUint32(arena, uint32(e.Dim))
	arena = binary.LittleEndian.AppendUint32(arena, uint32(n))
	for _, v := range data {
		arena = binary.LittleEndian.AppendUint32(arena, math.Float32bits(v))
	}
	return syms, arena
}

// decodeEmbeddingSections builds an embedding of dimension dim over
// symbols and float32 arena section payloads. The result views both
// buffers, which must not be mutated afterward — which is also why
// every structural invariant is validated here. Failures wrap
// ErrCorrupt; the decoder never panics on hostile input.
func decodeEmbeddingSections(symsData, arenaData []byte, dim int) (*embed.Embedding, error) {
	if len(symsData) < 8 {
		return nil, fmt.Errorf("%w: symbols section is %d bytes", ErrCorrupt, len(symsData))
	}
	n := int(binary.LittleEndian.Uint32(symsData))
	blobLen := int(binary.LittleEndian.Uint32(symsData[4:]))
	if n < 0 || n >= math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible symbol count %d", ErrCorrupt, n)
	}
	want := 8 + 4*(n+1) + 4*n + blobLen
	if blobLen < 0 || len(symsData) != want {
		return nil, fmt.Errorf("%w: symbols section is %d bytes, want %d for %d symbols / %d blob bytes",
			ErrCorrupt, len(symsData), want, n, blobLen)
	}
	offs := durable.View[uint32](symsData[8:], n+1)
	perm := durable.View[int32](symsData[8+4*(n+1):], n)
	blob := symsData[8+4*(n+1)+4*n:]
	st, err := embed.FromParts(blob, offs, perm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	if len(arenaData) < 8 {
		return nil, fmt.Errorf("%w: arena section is %d bytes", ErrCorrupt, len(arenaData))
	}
	cols := int(binary.LittleEndian.Uint32(arenaData))
	rows := int(binary.LittleEndian.Uint32(arenaData[4:]))
	if cols != dim {
		return nil, fmt.Errorf("%w: arena dim %d != config dim %d", ErrCorrupt, cols, dim)
	}
	if rows != n {
		return nil, fmt.Errorf("%w: arena holds %d rows for %d symbols", ErrCorrupt, rows, n)
	}
	if int64(len(arenaData)-8) != int64(rows)*int64(cols)*4 {
		return nil, fmt.Errorf("%w: arena section has %d data bytes, want %d",
			ErrCorrupt, len(arenaData)-8, int64(rows)*int64(cols)*4)
	}
	e, err := embed.NewEmbeddingTable(st, cols, durable.View[float32](arenaData[8:], rows*cols))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return e, nil
}

// decodeColumns parses a columns section into (table, fitted columns)
// pairs in encoded (sorted-table) order.
func decodeColumns(data []byte) ([]BundleTableColumns, error) {
	off := 0
	u32 := func() (int, error) {
		if len(data)-off < 4 {
			return 0, fmt.Errorf("%w: columns section truncated at offset %d", ErrCorrupt, off)
		}
		v := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		return v, nil
	}
	str := func() (string, error) {
		l, err := u32()
		if err != nil {
			return "", err
		}
		if l < 0 || len(data)-off < l {
			return "", fmt.Errorf("%w: columns section claims a %d-byte string at offset %d", ErrCorrupt, l, off)
		}
		s := string(data[off : off+l])
		off += l
		return s, nil
	}
	nt, err := u32()
	if err != nil {
		return nil, err
	}
	if nt < 0 || nt > 1<<20 {
		return nil, fmt.Errorf("%w: implausible table count %d", ErrCorrupt, nt)
	}
	out := make([]BundleTableColumns, 0, nt)
	for i := 0; i < nt; i++ {
		table, err := str()
		if err != nil {
			return nil, err
		}
		nc, err := u32()
		if err != nil {
			return nil, err
		}
		if nc < 0 || nc > 1<<20 {
			return nil, fmt.Errorf("%w: implausible column count %d for table %q", ErrCorrupt, nc, table)
		}
		cols := make([]string, 0, nc)
		for j := 0; j < nc; j++ {
			c, err := str()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
		}
		out = append(out, BundleTableColumns{Table: table, Columns: cols})
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: columns section has %d trailing bytes", ErrCorrupt, len(data)-off)
	}
	return out, nil
}
