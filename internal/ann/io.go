package ann

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/embed"
)

// On-disk format. An index artifact is a directory holding one payload
// file, index.bin, sealed by the durable MANIFEST.json protocol (per-
// file SHA-256, staged sibling directory, single publish rename), so a
// crash mid-save leaves the old complete index or the new complete
// index — never a hybrid — and any later corruption surfaces as an
// error naming the damaged file.
//
// index.bin is designed to be viewed, not decoded: every array is
// stored exactly as the in-memory Index holds it, so Load reads the
// file once, hashes those bytes against the manifest, and Decode
// builds slice views over the buffer. Layout (all integers
// little-endian; n nodes, P (node, layer) pairs, L links; w = 2 when
// n <= 65,536, else 4):
//
//	magic        8 bytes  "LEVAHNSW"
//	version      u32      format version (currently 4)
//	metric       u32      0 = cosine (1 = dot product, no longer read)
//	M            u32      build options, for provenance and defaults
//	efConstruct  u32
//	efSearch     u32
//	dim          u32
//	seed         u64      int64 bits
//	n            u32      vector count
//	entry        u32      entry-point node id
//	maxLevel     u32      top layer (level(entry) == maxLevel)
//	P            u32      (node, layer) pair count
//	L            u32      link count
//	blobLen      u32      symbol blob bytes
//	offsets      (n+1) × u32  symbol i = blob[offsets[i]:offsets[i+1]]
//	sortedIds    n × u32      lexicographic permutation of the symbols
//	first        (n+1) × u32  node i owns pairs first[i]..first[i+1]-1,
//	                          one per layer 0..level(i)
//	loff         (P+1) × u32  pair p links lids[loff[p]:loff[p+1]]
//	lids         L × w bytes  neighbor node ids: u16 when w = 2, else u32
//	blob         blobLen bytes, names in node order
//	padding      zero bytes up to the next multiple of 4
//	vectors      n × dim × f32 bits, unit-normalized in float64 and
//	             rounded to float32 once (see the package doc)
//
// The header is 64 bytes, so every u32 array, the link ids and the
// vectors are aligned for their element type relative to the file
// start. The id width is not stored: it follows from n, so equal
// indexes still have one encoding. The symbol arrays are
// bundle.bin's symbols section (internal/core) minus its count header.
//
// Encode is deterministic (the package determinism contract), so equal
// indexes are byte-equal files and the stage cache can address them by
// content fingerprint. Decode accepts only the canonical encoding —
// padding must be zero — so Encode(Decode(x)) == x for every accepted x.
//
// Version history: 1 stored names as length-prefixed strings and
// links as per-node, per-layer counted lists, decoded node by node.
// Version 2 introduced the viewable layout above with float64 vectors
// padded to an 8-byte boundary. Version 3 stores the vectors as
// float32, halving their bytes on disk and in memory. Version 4 stores
// the link ids in 2 bytes when n <= 65,536, halving the link array of
// every index that small. There is no reader for versions 1 to 3: an
// old index is rebuilt, not read.

const (
	// FormatVersion is the index.bin format written by Encode.
	FormatVersion = 4
	// IndexFileName is the payload file inside an index directory.
	IndexFileName = "index.bin"

	indexMagic = "LEVAHNSW"
	headerLen  = 64
	// maxDim bounds what a lying header can claim before the length
	// check against the actual buffer kicks in.
	maxDim = 1 << 20
	// rebuildHint ends every version error: the fix for an index written
	// by another format revision is a rebuild from its bundle.
	rebuildHint = "rebuild the index with `leva embed -index`"

	// Header metric words. Every index is cosine; metricDot marks an
	// inner-product index written by older builds, which Decode refuses.
	metricCosine = 0
	metricDot    = 1
)

// Named decode errors. Every failure of Decode/Load wraps exactly one
// of these (or an *os.PathError from the filesystem), never panics.
var (
	// ErrBadMagic marks a file that is not an ANN index at all.
	ErrBadMagic = errors.New("ann: not an ANN index file (bad magic)")
	// ErrVersion marks an index written by another format revision, or
	// one ranking by inner product, which only older builds wrote.
	ErrVersion = errors.New("ann: unsupported ANN index format version")
	// ErrCorrupt marks a truncated or internally inconsistent index.
	ErrCorrupt = errors.New("ann: corrupt or truncated ANN index")
)

// layout is the byte geometry of an index.bin body, shared by Encode
// and Decode so the two cannot disagree.
type layout struct {
	n, pairs, links, blobLen int64
}

// idBytes is the stored width of one link id.
func (l layout) idBytes() int64 {
	if narrowIDs(int(l.n)) {
		return 2
	}
	return 4
}

func (l layout) offsetsOff() int64 { return headerLen }
func (l layout) permOff() int64    { return l.offsetsOff() + 4*(l.n+1) }
func (l layout) firstOff() int64   { return l.permOff() + 4*l.n }
func (l layout) loffOff() int64    { return l.firstOff() + 4*(l.n+1) }
func (l layout) lidsOff() int64    { return l.loffOff() + 4*(l.pairs+1) }
func (l layout) blobOff() int64    { return l.lidsOff() + l.idBytes()*l.links }
func (l layout) padOff() int64     { return l.blobOff() + l.blobLen }
func (l layout) vecOff() int64     { return (l.padOff() + 3) &^ 3 }

// Encode serializes the index. Output is byte-identical for equal
// indexes.
func (ix *Index) Encode() []byte {
	if narrowIDs(ix.Len()) {
		return encode(ix, ix.narrow)
	}
	return encode(ix, ix.wide)
}

func encode[T linkID](ix *Index, g csr[T]) []byte {
	st := ix.syms
	lay := layout{
		n:       int64(ix.Len()),
		pairs:   int64(len(g.loff) - 1),
		links:   int64(len(g.lids)),
		blobLen: int64(len(st.Blob())),
	}
	buf := make([]byte, 0, lay.vecOff()+4*int64(len(ix.vecs)))
	buf = append(buf, indexMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, metricCosine)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.opts.M))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.opts.EfConstruction))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.opts.EfSearch))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ix.opts.Seed))
	for _, v := range []int64{lay.n, int64(ix.entry), int64(ix.maxLevel), lay.pairs, lay.links, lay.blobLen} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = appendLE(buf, st.Offsets())
	buf = appendLE(buf, st.SortedIDs())
	buf = appendLE(buf, g.first)
	buf = appendLE(buf, g.loff)
	buf = appendLE(buf, g.lids)
	buf = append(buf, st.Blob()...)
	for int64(len(buf)) < lay.vecOff() {
		buf = append(buf, 0)
	}
	for _, v := range ix.vecs {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// appendLE appends vs little-endian: 2 bytes per uint16, 4 otherwise.
func appendLE[T uint16 | uint32 | int32](buf []byte, vs []T) []byte {
	if u16, ok := any(vs).([]uint16); ok {
		for _, v := range u16 {
			buf = binary.LittleEndian.AppendUint16(buf, v)
		}
		return buf
	}
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Decode builds a queryable index over an index.bin buffer. The index
// retains data — names, adjacency (link ids in their stored width) and
// vectors are views into it (zero copy when data is aligned and the
// host little-endian) — so data must
// not be mutated afterward. That is also why every structural invariant
// (option ranges, id ranges, no self-links, level caps, entry point,
// name uniqueness, exact length, zero padding) is validated here: a
// view over hostile bytes must be impossible to construct. Decode
// allocates the same small number of objects whatever the node count.
// It never panics on hostile input; failures wrap ErrBadMagic,
// ErrVersion, or ErrCorrupt.
func Decode(data []byte) (*Index, error) {
	if len(data) < len(indexMagic) || string(data[:len(indexMagic)]) != indexMagic {
		return nil, ErrBadMagic
	}
	if len(data) < len(indexMagic)+4 {
		return nil, corrupt("%d-byte file has no version", len(data))
	}
	if v := binary.LittleEndian.Uint32(data[len(indexMagic):]); v != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d; %s",
			ErrVersion, v, FormatVersion, rebuildHint)
	}
	if len(data) < headerLen {
		return nil, corrupt("%d-byte file has no complete header", len(data))
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	opts := Options{
		M:              int(u32(16)),
		EfConstruction: int(u32(20)),
		EfSearch:       int(u32(24)),
		Seed:           int64(binary.LittleEndian.Uint64(data[32:])),
	}
	switch m := u32(12); m {
	case metricCosine:
	case metricDot:
		return nil, fmt.Errorf("%w: file ranks by inner product (metric %d), this build reads only cosine indexes (metric %d); %s",
			ErrVersion, m, metricCosine, rebuildHint)
	default:
		return nil, corrupt("unknown metric %d", m)
	}
	dim, n := int(u32(28)), int(u32(40))
	entry, maxLevel := int64(u32(44)), int64(u32(48))
	lay := layout{n: int64(n), pairs: int64(u32(52)), links: int64(u32(56)), blobLen: int64(u32(60))}
	if opts.M < 2 || opts.EfConstruction < 1 || opts.EfSearch < 1 {
		return nil, corrupt("implausible build options (M=%d efConstruction=%d efSearch=%d)",
			opts.M, opts.EfConstruction, opts.EfSearch)
	}
	if dim < 1 || dim > maxDim {
		return nil, corrupt("implausible dimension %d", dim)
	}
	if n < 1 || n > math.MaxInt32 {
		return nil, corrupt("implausible vector count %d", n)
	}
	if entry >= int64(n) || maxLevel > maxLevelCap {
		return nil, corrupt("entry point %d / max level %d out of range", entry, maxLevel)
	}
	if want := lay.vecOff() + 4*int64(n)*int64(dim); int64(len(data)) != want {
		return nil, corrupt("file is %d bytes, want %d for %d nodes of dim %d, %d layer lists, %d links and %d name bytes",
			len(data), want, n, dim, lay.pairs, lay.links, lay.blobLen)
	}
	for i := lay.padOff(); i < lay.vecOff(); i++ {
		if data[i] != 0 {
			return nil, corrupt("nonzero padding byte at offset %d", i)
		}
	}

	st, err := embed.FromParts(
		data[lay.blobOff():lay.padOff()],
		durable.View[uint32](data[lay.offsetsOff():], n+1),
		durable.View[int32](data[lay.permOff():], n))
	if err != nil {
		return nil, corrupt("%v", err)
	}
	if name, dup := duplicateName(st); dup {
		return nil, corrupt("duplicate name %q", name)
	}
	ix := &Index{
		opts:     opts,
		dim:      dim,
		syms:     st,
		vecs:     durable.View[float32](data[lay.vecOff():], n*dim),
		entry:    int32(entry),
		maxLevel: int32(maxLevel),
	}
	if narrowIDs(n) {
		ix.narrow, err = viewCSR[uint16](data, lay, ix.entry, ix.maxLevel)
	} else {
		ix.wide, err = viewCSR[int32](data, lay, ix.entry, ix.maxLevel)
	}
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// viewCSR views the adjacency arrays of an index.bin buffer whose
// length and header Decode has checked, and validates them.
func viewCSR[T linkID](data []byte, lay layout, entry, maxLevel int32) (csr[T], error) {
	g := csr[T]{
		first: durable.View[uint32](data[lay.firstOff():], int(lay.n)+1),
		loff:  durable.View[uint32](data[lay.loffOff():], int(lay.pairs)+1),
		lids:  durable.View[T](data[lay.lidsOff():], int(lay.links)),
	}
	if err := g.validate(maxLevel); err != nil {
		return csr[T]{}, err
	}
	if lvl := g.level(entry); lvl != maxLevel {
		return csr[T]{}, corrupt("entry point %d has level %d, want max level %d", entry, lvl, maxLevel)
	}
	return g, nil
}

// validate checks that g is a well-formed adjacency over its nodes:
// pair and link offsets start at zero, never decrease and end exactly
// at the array lengths; every node has between 1 and maxLevel+1
// layers; no layer claims more links than there are nodes; and every
// link names another node in range. Each span is bounds-checked before
// it is sliced, since a later offset may still decrease.
func (g csr[T]) validate(maxLevel int32) error {
	n := len(g.first) - 1
	pairs, links := len(g.loff)-1, len(g.lids)
	if g.first[0] != 0 || int(g.first[n]) != pairs {
		return corrupt("layer lists span [%d, %d), the file has %d", g.first[0], g.first[n], pairs)
	}
	if g.loff[0] != 0 || int(g.loff[pairs]) != links {
		return corrupt("links span [%d, %d), the file has %d", g.loff[0], g.loff[pairs], links)
	}
	for i := 0; i < n; i++ {
		lo, hi := g.first[i], g.first[i+1]
		if hi <= lo || hi-lo > uint32(maxLevel)+1 || int(hi) > pairs {
			return corrupt("node %d has layer lists [%d, %d) (max level %d, %d lists)", i, lo, hi, maxLevel, pairs)
		}
		for p := lo; p < hi; p++ {
			a, b := g.loff[p], g.loff[p+1]
			if b < a || int(b) > links {
				return corrupt("node %d layer %d links span [%d, %d)", i, p-lo, a, b)
			}
			if int(b-a) > n {
				return corrupt("node %d layer %d claims %d links", i, p-lo, b-a)
			}
			for _, nb := range g.lids[a:b] {
				if int(nb) < 0 || int(nb) >= n || int(nb) == i {
					return corrupt("node %d layer %d links to invalid node %d", i, p-lo, nb)
				}
			}
		}
	}
	return nil
}

// Save publishes the index to dir crash-safely: index.bin and the
// sealing MANIFEST.json are staged in a sibling directory and swapped
// in with one rename, exactly like SaveBundle. An existing index at
// dir stays readable until the instant the new one replaces it.
func (ix *Index) Save(dir string) error {
	return ix.save(durable.OS(), dir)
}

// save is Save over an injectable filesystem — the seam the
// fault-injection suite uses to prove crash safety.
func (ix *Index) save(fsys durable.FS, dir string) error {
	if err := durable.PublishDir(fsys, dir, FormatVersion, map[string][]byte{IndexFileName: ix.Encode()}); err != nil {
		return fmt.Errorf("ann: save index: %w", err)
	}
	return nil
}

// LoadOptions tunes LoadOpts. It mirrors core.LoadOptions.
type LoadOptions struct {
	// MMap memory-maps index.bin instead of reading it, when the
	// platform supports it (see durable.MapSupported). Names and vectors
	// then point into the mapping. Load hashes every byte of it against
	// the manifest without keeping the pages (durable.LoadVerified), so
	// only the pages decoding and searching touch are resident; the
	// holder must call Index.Unmap once nothing can touch them.
	MMap bool
	// Warn receives human-readable warnings for conditions that do not
	// prevent loading: a crashed publish that was rolled back, or an
	// mmap fallback to a plain read. nil discards them.
	Warn func(msg string)
}

// Load restores an index saved by Save. A publish interrupted between
// its two renames is repaired on the way in. index.bin is read once:
// those bytes are verified against MANIFEST.json and then decoded in
// place, so the loaded index is views over a single buffer. As with
// bundles (core.LoadBundle), a directory without a manifest is refused
// with an error wrapping durable.ErrNoManifest.
func Load(dir string) (*Index, error) {
	return LoadOpts(dir, LoadOptions{})
}

// LoadOpts is Load with explicit options. A mapped load runs every
// check a read one does — the manifest SHA-256 over the mapped bytes
// and every structural check in Decode — and unmaps before returning
// any failure. When mapping is unsupported or fails, it warns and
// falls back to a plain read.
func LoadOpts(dir string, opts LoadOptions) (*Index, error) {
	dir = filepath.Clean(dir)
	recovered, err := durable.RecoverDir(durable.OS(), dir)
	if err != nil {
		return nil, fmt.Errorf("ann: load index: %w", err)
	}
	if recovered && opts.Warn != nil {
		opts.Warn(fmt.Sprintf("ann: load index: %s was missing after an interrupted save; restored the previous complete index from %s%s", dir, dir, durable.OldSuffix))
	}
	manifest, err := durable.ReadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("ann: load index: %w", err)
	}
	if manifest.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("%w: %s records %s format version %d, this build reads version %d; %s",
			ErrVersion, filepath.Join(dir, durable.ManifestName), IndexFileName, manifest.FormatVersion, FormatVersion, rebuildHint)
	}
	if manifest.Entry(IndexFileName) == nil {
		return nil, fmt.Errorf("%w: %s does not list %s", ErrCorrupt,
			filepath.Join(dir, durable.ManifestName), IndexFileName)
	}
	path := filepath.Join(dir, IndexFileName)
	data, mapped, err := durable.LoadVerified(path, manifest, opts.MMap, opts.Warn)
	if err != nil {
		return nil, fmt.Errorf("ann: load index: %w", err)
	}
	ix, err := Decode(data)
	if err != nil {
		if mapped {
			_ = durable.Unmap(data)
		}
		return nil, fmt.Errorf("ann: load index %s: %w", path, err)
	}
	if mapped {
		ix.mapped = data
	}
	return ix, nil
}

// Mapped reports whether this index's names and vectors point into a
// live file mapping (see LoadOptions.MMap) — in which case the holder
// must call Unmap once nothing can touch them again.
func (ix *Index) Mapped() bool { return ix.mapped != nil }

// Unmap releases the file mapping behind an index loaded with
// LoadOptions.MMap. Names and vectors returned by a mapped index —
// Names() strings, Result.Name, the float arena — are valid until
// Unmap and invalid afterward, so this must be the very last call;
// serving ties it to the generation refcount draining. A quantized
// arena that Quantize(nil) built is heap memory and unaffected. Unmap
// is idempotent and a no-op for an index that was read or built, and
// for a nil one.
func (ix *Index) Unmap() error {
	if ix == nil {
		return nil
	}
	var err error
	ix.unmapOnce.Do(func() {
		if ix.mapped != nil {
			err = durable.Unmap(ix.mapped)
		}
	})
	return err
}
