// Package ann provides a dependency-free HNSW (Hierarchical Navigable
// Small World) approximate-nearest-neighbor index over Leva's
// relational embeddings. Entity resolution, token/row matching and
// online `/v1/neighbors` serving all reduce to "top-k most similar
// vectors"; this package answers that in sub-millisecond time over
// collections where the brute-force scan in internal/er is quadratic.
//
// # Determinism contract
//
// Build is fully deterministic for a fixed (vectors, Options) input:
// node levels are drawn from a single rand.Rand seeded with
// Options.Seed in insertion order, nodes are inserted sequentially,
// and every neighbor selection breaks distance ties by node id. Two
// builds of the same input therefore produce byte-identical Encode
// output, at every GOMAXPROCS and worker count — the same property the
// embedding pipeline guarantees, extended to the index artifact so the
// stage cache can treat it as content-addressed.
//
// Search is read-only after Build returns; an *Index may be queried
// from any number of goroutines concurrently.
//
// # Similarity
//
// Every index ranks by cosine similarity: vectors are normalized to
// unit length at build (and query) time, so scores are in [-1, 1].
//
// # Precision
//
// An index stores its unit-normalized vectors as float32, the
// precision of the paper's own word2vec path: each row is normalized
// in float64 and rounded to float32 once (storeUnit), and the graph is
// wired on the rounded rows, so a built index answers exactly like its
// Decode(Encode(...)). Distances widen each stored element to float64
// and accumulate in float64 in element order; queries stay float64.
// Scores therefore match the exact float64 cosine of the unrounded
// vectors to within float32 rounding (about 1e-7 per component).
package ann

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/embed"
)

// maxLevelCap bounds node levels so a hostile or corrupt file can
// never claim an absurd layer count; with mL = 1/ln(M) the probability
// of a legitimate draw reaching 30 is negligible for any real n.
const maxLevelCap = 30

// Options configures an HNSW build. The zero value means "defaults".
type Options struct {
	// M is the maximum number of neighbors kept per node on layers
	// above the base; the base layer keeps 2M. Default 16.
	M int
	// EfConstruction is the beam width used while inserting nodes;
	// larger values build a higher-recall graph more slowly.
	// Default 200.
	EfConstruction int
	// EfSearch is the default query-time beam width, used when a
	// search passes ef <= 0. Larger values trade latency for recall.
	// Default 64.
	EfSearch int
	// Seed feeds the level generator. Fixed seed + fixed input =
	// byte-identical index (see the package determinism contract).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.M <= 0 {
		o.M = 16
	}
	if o.EfConstruction <= 0 {
		o.EfConstruction = 200
	}
	if o.EfSearch <= 0 {
		o.EfSearch = 64
	}
	return o
}

func (o Options) validate() error {
	if o.M < 2 {
		return fmt.Errorf("ann: M must be >= 2, got %d", o.M)
	}
	return nil
}

// ErrUnknownName is returned (wrapped) by SearchName for a name the
// index does not hold.
var ErrUnknownName = errors.New("ann: name not in index")

// Result is one search hit.
type Result struct {
	// ID is the hit's slot in Names() order (stable across save/load).
	ID int
	// Name is the embedded entity name (a token, or "table:rowIdx").
	Name string
	// Score is the cosine similarity to the query. Results are
	// ordered by descending score, ties by ascending ID.
	Score float64
}

// Index is an immutable HNSW graph over a fixed vector collection.
// All methods are safe for concurrent use once Build returns.
type Index struct {
	opts Options
	dim  int
	// syms maps names to node ids and back. Build shares the
	// embedding's interned table, BuildVectors interns its own, and
	// Decode views the one stored in index.bin.
	syms *embed.SymbolTable
	// vecs holds all vectors row-major (n x dim), unit-normalized in
	// float64 and then rounded to float32 (storeUnit).
	vecs []float32
	// The frozen adjacency, in the link-id width narrowIDs picks for
	// the node count: narrow when the ids fit in a uint16, wide
	// otherwise. The other one is empty.
	narrow   csr[uint16]
	wide     csr[int32]
	entry    int32
	maxLevel int32
	// quant, when set by Quantize, routes graph traversal through the
	// int8 arena with a float64 re-rank of the final beam (quant.go).
	quant *embed.QuantizedMatrix
	// visits pools the visited sets of layer searches (see visitSet).
	visits sync.Pool

	// mapped is the whole-file mmap behind this index's views when it
	// was loaded with LoadOptions.MMap; nil otherwise. Owned by Unmap.
	mapped []byte
	// unmapOnce makes Unmap idempotent.
	unmapOnce sync.Once
}

// linkID is the element type of a frozen link array: uint16 when the
// index has at most narrowMaxNodes nodes, int32 otherwise.
type linkID interface{ uint16 | int32 }

// narrowMaxNodes is the largest node count whose link ids are stored
// as uint16: ids run from 0 to n-1, and 65,535 is the largest uint16.
const narrowMaxNodes = 1 << 16

// narrowIDs reports whether an index of n nodes stores its link ids as
// uint16. The width follows from n alone, in memory and in index.bin.
func narrowIDs(n int) bool { return n <= narrowMaxNodes }

// csr is the frozen adjacency in compressed-sparse-row form, the exact
// layout index.bin stores. Node i owns the (node, layer) pairs
// first[i] .. first[i+1]-1, one per layer 0..level(i), and pair p's
// neighbor ids are lids[loff[p]:loff[p+1]].
type csr[T linkID] struct {
	first []uint32 // len n+1
	loff  []uint32 // len P+1, P = first[n]
	lids  []T      // len L, L = loff[P]
}

// level returns the top layer of node id.
func (g csr[T]) level(id int32) int32 { return int32(g.first[id+1]-g.first[id]) - 1 }

func (g csr[T]) linksAt(id, lvl int32) []T {
	p := int(g.first[id]) + int(lvl)
	if p >= int(g.first[id+1]) {
		return nil
	}
	return g.lids[g.loff[p]:g.loff[p+1]]
}

// adjacency is what a layer search walks: the growable lists of an
// index under construction, or the frozen CSR arrays of a finished one
// in either link-id width. The searches are generic over it, so each
// representation gets its own instantiation.
type adjacency[T linkID] interface {
	linksAt(id, lvl int32) []T
}

// idOf resolves an entity name to its node id.
func (ix *Index) idOf(name string) (int32, bool) {
	id, ok := ix.syms.Lookup(name)
	return int32(id), ok
}

// duplicateName returns a name st holds more than once, if any. The
// sorted permutation puts equal names next to each other, so the scan
// is linear.
func duplicateName(st *embed.SymbolTable) (string, bool) {
	sorted := st.SortedIDs()
	for i := 1; i < len(sorted); i++ {
		if name := st.At(int(sorted[i])); name == st.At(int(sorted[i-1])) {
			return name, true
		}
	}
	return "", false
}

// Build indexes every vector of e under opts. Unlike BuildVectors it
// does not copy per entity: the name table is the embedding's interned
// symbol table, and the vector block is read row by row from the
// embedding's contiguous float32 arena, each row widened into a scratch
// row first. Rows are stored by the same storeUnit as BuildVectors', so
// the two produce the same index for the same input.
func Build(e *embed.Embedding, opts Options) (*Index, error) {
	if e == nil || e.Len() == 0 {
		return nil, errors.New("ann: cannot build an index over an empty embedding")
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n, dim := e.Len(), e.Dim
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("ann: %d vectors exceeds the int32 id space", n)
	}
	if dim == 0 {
		return nil, errors.New("ann: zero-dimensional vectors")
	}
	st := e.Symbols()
	// Duplicate names would make id resolution ambiguous.
	if name, dup := duplicateName(st); dup {
		return nil, fmt.Errorf("ann: duplicate name %q", name)
	}
	start := time.Now()
	ix := &Index{opts: opts, dim: dim, syms: st, vecs: make([]float32, 0, n*dim)}
	arena, row, scratch := e.Arena(), make([]float64, 0, dim), make([]float64, dim)
	for i := 0; i < n; i++ {
		row = widen(row[:0], arena[i*dim:(i+1)*dim])
		ix.vecs = storeUnit(ix.vecs, row, scratch)
	}
	if err := ix.wire(rand.New(rand.NewSource(opts.Seed))); err != nil {
		return nil, err
	}
	buildsTotal.Inc()
	buildSeconds.ObserveDuration(time.Since(start))
	return ix, nil
}

// BuildVectors indexes the given vectors, where vecs[i] is the vector
// for names[i]. Vectors are normalized and stored as float32 copies
// (storeUnit); the inputs are not retained.
func BuildVectors(names []string, vecs [][]float64, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := len(names)
	if n == 0 {
		return nil, errors.New("ann: cannot build an index over zero vectors")
	}
	if n != len(vecs) {
		return nil, fmt.Errorf("ann: %d names for %d vectors", n, len(vecs))
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("ann: %d vectors exceeds the int32 id space", n)
	}
	dim := len(vecs[0])
	if dim == 0 {
		return nil, errors.New("ann: zero-dimensional vectors")
	}
	start := time.Now()
	st, err := embed.NewSymbolTable(names)
	if err != nil {
		return nil, fmt.Errorf("ann: %w", err)
	}
	if name, dup := duplicateName(st); dup {
		return nil, fmt.Errorf("ann: duplicate name %q", name)
	}
	ix := &Index{opts: opts, dim: dim, syms: st, vecs: make([]float32, 0, n*dim)}
	scratch := make([]float64, dim)
	for i, v := range vecs {
		if len(v) != dim {
			return nil, fmt.Errorf("ann: vector %d has dim %d, want %d", i, len(v), dim)
		}
		ix.vecs = storeUnit(ix.vecs, v, scratch)
	}
	if err := ix.wire(rand.New(rand.NewSource(opts.Seed))); err != nil {
		return nil, err
	}
	buildsTotal.Inc()
	buildSeconds.ObserveDuration(time.Since(start))
	return ix, nil
}

// builder holds the adjacency of an index under construction:
// per-node, per-layer neighbor lists that grow and shrink as nodes are
// inserted. They live only for the duration of wire, which freezes
// them into the index's CSR arrays.
type builder struct {
	ix     *Index
	levels []int32
	links  lists
	// q holds the widened vector of the node being inserted.
	q []float64
	// Scratch that every insertion reuses, each reset per use:
	// searchLayer's two heaps and visited set, the candidates
	// selectNeighbors keeps, and the re-ranked list shrink selects from.
	heaps    layerHeaps
	visited  *visitSet
	selected []cand
	ranked   []cand
}

// lists are the growable adjacency of an index under construction:
// lists[node][layer] = neighbor ids.
type lists [][][]int32

func (l lists) linksAt(id, lvl int32) []int32 {
	ls := l[id]
	if int(lvl) >= len(ls) {
		return nil
	}
	return ls[lvl]
}

// wire draws every node's level up front from one seeded stream (the
// only randomness in the whole build), inserts sequentially, and
// freezes the result into the index's CSR arrays.
func (ix *Index) wire(rng *rand.Rand) error {
	n := ix.Len()
	b := &builder{ix: ix, levels: make([]int32, n), links: make(lists, n), q: make([]float64, ix.dim),
		visited: &visitSet{stamp: make([]uint32, n)}}
	mL := 1 / math.Log(float64(ix.opts.M))
	for i := range b.levels {
		b.levels[i] = drawLevel(rng, mL)
		b.links[i] = make([][]int32, b.levels[i]+1)
	}
	ix.entry = -1
	for i := range b.levels {
		b.insert(int32(i))
	}
	return b.freeze()
}

// freeze flattens the neighbor lists into the index's CSR arrays, in
// the link-id width narrowIDs picks: one allocation per array,
// whatever the node count.
func (b *builder) freeze() error {
	pairs, links := 0, 0
	for _, ls := range b.links {
		pairs += len(ls)
		for _, nbs := range ls {
			links += len(nbs)
		}
	}
	if pairs > math.MaxUint32 || links > math.MaxUint32 {
		return fmt.Errorf("ann: %d layer lists / %d links exceed the u32 offsets of the index format", pairs, links)
	}
	if narrowIDs(len(b.links)) {
		b.ix.narrow = freezeAs[uint16](b.links, pairs, links)
	} else {
		b.ix.wide = freezeAs[int32](b.links, pairs, links)
	}
	return nil
}

// freezeAs flattens ls into CSR arrays with link ids of type T.
func freezeAs[T linkID](ls lists, pairs, links int) csr[T] {
	g := csr[T]{
		first: make([]uint32, 1, len(ls)+1),
		loff:  make([]uint32, 1, pairs+1),
		lids:  make([]T, 0, links),
	}
	for _, node := range ls {
		for _, nbs := range node {
			for _, nb := range nbs {
				g.lids = append(g.lids, T(nb))
			}
			g.loff = append(g.loff, uint32(len(g.lids)))
		}
		g.first = append(g.first, uint32(len(g.loff)-1))
	}
	return g
}

func drawLevel(rng *rand.Rand, mL float64) int32 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	lvl := int32(math.Floor(-math.Log(u) * mL))
	if lvl > maxLevelCap {
		lvl = maxLevelCap
	}
	return lvl
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return ix.syms.Len() }

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Opts returns the (defaulted) build options.
func (ix *Index) Opts() Options { return ix.opts }

// Names returns the indexed names in id order, as a fresh slice whose
// strings alias the symbol table's bytes.
func (ix *Index) Names() []string { return ix.syms.AppendNames(nil) }

// Has reports whether name is indexed.
func (ix *Index) Has(name string) bool {
	_, ok := ix.idOf(name)
	return ok
}

// vec returns the stored (normalized, float32) vector of node id.
func (ix *Index) vec(id int32) []float32 {
	return ix.vecs[int(id)*ix.dim : (int(id)+1)*ix.dim]
}

// dist is the internal ordering key: the negated inner product of unit
// vectors, so smaller is more similar. Each stored element is widened
// to float64 and the products accumulate in float64.
func (ix *Index) dist(q []float64, id int32) float64 {
	v := ix.vec(id)
	var dot float64
	for i, x := range q {
		dot += x * float64(v[i])
	}
	return -dot
}

// distPair is dist between two stored vectors. It equals
// dist(widen(nil, ix.vec(a)), b) bit for bit — same products (each
// exact, as two widened float32 values have 48 significant bits at
// most), same summation order — without widening a into a buffer.
func (ix *Index) distPair(a, b int32) float64 {
	va, vb := ix.vec(a), ix.vec(b)
	var dot float64
	for i, x := range va {
		dot += float64(x) * float64(vb[i])
	}
	return -dot
}

// cand is a (distance, id) pair; every ordering decision in the index
// goes through candLess so distance ties always break by ascending id —
// the root of the determinism contract.
type cand struct {
	dist float64
	id   int32
}

func candLess(a, b cand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// candCmp is candLess as the three-way comparison slices.SortFunc
// takes. The pdqsort behind slices.SortFunc and the one behind
// sort.Slice are generated from one template and ask only whether
// cmp(a, b) < 0, respectively less(a, b), in the same order, so sorting
// with candCmp permutes a slice exactly as sort.Slice with candLess
// does, without the reflection-based swapper.
func candCmp(a, b cand) int {
	if candLess(a, b) {
		return -1
	}
	if candLess(b, a) {
		return 1
	}
	return 0
}

// SearchVector returns the k nearest stored vectors to q, best first.
// ef <= 0 uses Options.EfSearch; ef is raised to k when smaller.
func (ix *Index) SearchVector(q []float64, k, ef int) ([]Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("ann: query has dim %d, index has dim %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	return ix.results(ix.search(normalized(q), k, ef)), nil
}

// SearchName returns the k nearest neighbors of an indexed entity,
// excluding the entity itself. Unknown names return an error wrapping
// ErrUnknownName.
func (ix *Index) SearchName(name string, k, ef int) ([]Result, error) {
	id, ok := ix.idOf(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	// Ask for one extra: the entity is its own nearest neighbor.
	hits := ix.search(widen(nil, ix.vec(id)), k+1, ef)
	out := make([]Result, 0, k)
	for _, c := range hits {
		if c.id == id {
			continue
		}
		out = append(out, Result{ID: int(c.id), Name: ix.syms.At(int(c.id)), Score: -c.dist})
		if len(out) == k {
			break
		}
	}
	return out, nil
}

func (ix *Index) results(hits []cand) []Result {
	out := make([]Result, len(hits))
	for i, c := range hits {
		out[i] = Result{ID: int(c.id), Name: ix.syms.At(int(c.id)), Score: -c.dist}
	}
	return out
}

// search runs the layered HNSW query and returns up to k candidates
// sorted best-first. q must already be normalized.
func (ix *Index) search(q []float64, k, ef int) []cand {
	if ix.quant != nil {
		return ix.searchQuant(q, k, ef)
	}
	start := time.Now()
	ef = ix.beamWidth(k, ef)
	var w []cand
	if narrowIDs(ix.Len()) {
		w = descend(ix, ix.narrow, q, ef)
	} else {
		w = descend(ix, ix.wide, q, ef)
	}
	if len(w) > k {
		w = w[:k]
	}
	queriesTotal.Inc()
	querySeconds.ObserveDuration(time.Since(start))
	return w
}

// beamWidth is the layer-0 beam of a k-nearest query: ef, or
// Options.EfSearch when ef <= 0, raised to k when smaller.
func (ix *Index) beamWidth(k, ef int) int {
	if ef <= 0 {
		ef = ix.opts.EfSearch
	}
	return max(ef, k)
}

// descend walks g from the entry point: a greedy descent down to
// layer 1, then a beam search of width ef on layer 0.
func descend[T linkID, G adjacency[T]](ix *Index, g G, q []float64, ef int) []cand {
	ep := ix.entry
	for lc := ix.maxLevel; lc > 0; lc-- {
		ep = greedy(ix, g, q, ep, lc)
	}
	visited := ix.acquireVisits()
	defer ix.visits.Put(visited)
	return searchLayer(ix, g, q, ep, ef, 0, &layerHeaps{}, visited)
}

// greedy descends one layer of g: repeatedly move to the best neighbor
// until no neighbor improves on the current node.
func greedy[T linkID, G adjacency[T]](ix *Index, g G, q []float64, ep int32, lvl int32) int32 {
	best := cand{ix.dist(q, ep), ep}
	for {
		improved := false
		for _, nb := range g.linksAt(best.id, lvl) {
			c := cand{ix.dist(q, int32(nb)), int32(nb)}
			if candLess(c, best) {
				best = c
				improved = true
			}
		}
		if !improved {
			return best.id
		}
	}
}

// visitSet is an epoch-stamped visited set over node ids: id counts as
// visited when stamp[id] == epoch, so starting the next search is one
// increment instead of a fresh map or an O(n) wipe. Queries take sets
// from a pool per index (Index.visits), each used by one search at a
// time; the builder keeps one of its own.
type visitSet struct {
	stamp []uint32
	epoch uint32
}

// acquireVisits takes a cleared visited set from the pool. Hand it
// back with ix.visits.Put when the search is done.
func (ix *Index) acquireVisits() *visitSet {
	v, _ := ix.visits.Get().(*visitSet)
	if v == nil {
		v = &visitSet{stamp: make([]uint32, ix.Len())}
	}
	v.reset()
	return v
}

// reset empties the set.
func (v *visitSet) reset() {
	v.epoch++
	if v.epoch == 0 {
		// Wrapped: stamps left from 2^32 searches ago would read as
		// visited.
		clear(v.stamp)
		v.epoch = 1
	}
}

// visit marks id and reports whether it was unvisited.
func (v *visitSet) visit(id int32) bool {
	if v.stamp[id] == v.epoch {
		return false
	}
	v.stamp[id] = v.epoch
	return true
}

// layerHeaps are searchLayer's two heaps: the expansion frontier and
// the bounded result set. A query uses a fresh pair; the builder reuses
// one pair for every layer search of the build.
type layerHeaps struct {
	frontier, results candHeap
}

// searchLayer is the HNSW beam search on one layer of g: expand the
// closest unexpanded candidate until it cannot improve the current
// ef-sized result set. visited must be empty. It empties h's heaps
// first and returns the candidates sorted best-first in h's result
// storage, so the slice is valid until h's next use.
func searchLayer[T linkID, G adjacency[T]](ix *Index, g G, q []float64, ep int32, ef int, lvl int32, h *layerHeaps, visited *visitSet) []cand {
	d0 := cand{ix.dist(q, ep), ep}
	visited.visit(ep)
	candidates := &h.frontier
	candidates.items, candidates.min = candidates.items[:0], true
	candidates.push(d0)
	results := &h.results
	results.items, results.min = results.items[:0], false
	results.push(d0)
	for candidates.len() > 0 {
		c := candidates.pop()
		if results.len() >= ef && candLess(results.peek(), c) {
			break
		}
		for _, link := range g.linksAt(c.id, lvl) {
			nb := int32(link)
			if !visited.visit(nb) {
				continue
			}
			d := cand{ix.dist(q, nb), nb}
			if results.len() < ef || candLess(d, results.peek()) {
				candidates.push(d)
				results.push(d)
				if results.len() > ef {
					results.pop()
				}
			}
		}
	}
	slices.SortFunc(results.items, candCmp)
	return results.items
}

// maxConn is the stored-degree cap: 2M on the base layer, M above.
func (ix *Index) maxConn(lvl int32) int {
	if lvl == 0 {
		return 2 * ix.opts.M
	}
	return ix.opts.M
}

// insert wires node i into the graph (nodes 0..i-1 already inserted).
func (b *builder) insert(i int32) {
	ix := b.ix
	if ix.entry < 0 {
		ix.entry = i
		ix.maxLevel = b.levels[i]
		return
	}
	q := widen(b.q[:0], ix.vec(i))
	ep := ix.entry
	for lc := ix.maxLevel; lc > b.levels[i]; lc-- {
		ep = greedy(ix, b.links, q, ep, lc)
	}
	top := min(b.levels[i], ix.maxLevel)
	for lc := top; lc >= 0; lc-- {
		b.visited.reset()
		w := searchLayer(ix, b.links, q, ep, ix.opts.EfConstruction, lc, &b.heaps, b.visited)
		limit := ix.maxConn(lc)
		// Room for the one append past limit that triggers a shrink,
		// so the list never regrows.
		nbs := b.selectNeighbors(make([]int32, 0, limit+1), w, ix.opts.M)
		b.links[i][lc] = nbs
		for _, nb := range nbs {
			b.links[nb][lc] = append(b.links[nb][lc], i)
			if len(b.links[nb][lc]) > limit {
				b.shrink(nb, lc, limit)
			}
		}
		ep = w[0].id
	}
	if b.levels[i] > ix.maxLevel {
		ix.entry = i
		ix.maxLevel = b.levels[i]
	}
}

// selectNeighbors is the HNSW heuristic: walk candidates (sorted by
// their distance to the node being linked) best-first, keeping one
// only if it is closer to that node than to every neighbor already
// kept (so the kept set spreads across directions instead of
// clustering), then fill any remaining slots with the nearest pruned
// candidates to preserve connectivity. It appends the kept ids to dst
// and returns it; cands must not share storage with dst.
func (b *builder) selectNeighbors(dst []int32, cands []cand, m int) []int32 {
	if len(cands) <= m {
		for _, c := range cands {
			dst = append(dst, c.id)
		}
		return dst
	}
	ix := b.ix
	selected := b.selected[:0]
	for _, c := range cands {
		if len(selected) == m {
			break
		}
		keep := true
		for _, s := range selected {
			if ix.distPair(s.id, c.id) < c.dist {
				keep = false
				break
			}
		}
		if keep {
			selected = append(selected, c)
		}
	}
	for _, c := range cands {
		if len(selected) == m {
			break
		}
		dup := false
		for _, s := range selected {
			if s.id == c.id {
				dup = true
				break
			}
		}
		if !dup {
			selected = append(selected, c)
		}
	}
	b.selected = selected
	for _, c := range selected {
		dst = append(dst, c.id)
	}
	return dst
}

// shrink re-selects node id's neighbor list on lvl down to m entries
// using the same heuristic insertion uses, writing the result over the
// list itself.
func (b *builder) shrink(id, lvl int32, m int) {
	ix := b.ix
	links := b.links[id][lvl]
	ranked := b.ranked[:0]
	for _, nb := range links {
		ranked = append(ranked, cand{ix.distPair(id, nb), nb})
	}
	slices.SortFunc(ranked, candCmp)
	b.ranked = ranked
	b.links[id][lvl] = b.selectNeighbors(links[:0], ranked, m)
}

// storeUnit appends v to dst as a stored row: normalized in float64 in
// scratch (len(v)), then rounded to float32 once. Build and
// BuildVectors both store every row through it.
func storeUnit(dst []float32, v, scratch []float64) []float32 {
	copy(scratch, v)
	normalize(scratch)
	for _, x := range scratch {
		dst = append(dst, float32(x))
	}
	return dst
}

// widen appends the float64 values of a stored row to dst.
func widen(dst []float64, v []float32) []float64 {
	for _, x := range v {
		dst = append(dst, float64(x))
	}
	return dst
}

// normalized returns a unit-length copy of q, leaving q untouched.
func normalized(q []float64) []float64 {
	qn := append([]float64(nil), q...)
	normalize(qn)
	return qn
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	inv := 1 / math.Sqrt(n)
	for i := range v {
		v[i] *= inv
	}
}
