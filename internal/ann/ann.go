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
package ann

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/embed"
)

// Metric selects the vector similarity an index is built for.
type Metric string

const (
	// MetricCosine ranks by cosine similarity. Vectors are normalized
	// to unit length at build (and query) time, so scores are in
	// [-1, 1] and match embed/er cosine exactly for nonzero vectors.
	MetricCosine Metric = "cosine"
	// MetricDot ranks by raw inner product (for vectors whose norm is
	// meaningful, e.g. popularity-scaled embeddings).
	MetricDot Metric = "dot"
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
	// Metric selects cosine (default) or dot-product ranking.
	Metric Metric
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
	if o.Metric == "" {
		o.Metric = MetricCosine
	}
	return o
}

func (o Options) validate() error {
	if o.M < 2 {
		return fmt.Errorf("ann: M must be >= 2, got %d", o.M)
	}
	if o.Metric != MetricCosine && o.Metric != MetricDot {
		return fmt.Errorf("ann: unknown metric %q (want %q or %q)", o.Metric, MetricCosine, MetricDot)
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
	// Score is the similarity under the index metric: cosine
	// similarity for MetricCosine, inner product for MetricDot.
	// Results are ordered by descending score, ties by ascending ID.
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
	// vecs holds all vectors row-major (n x dim), unit-normalized for
	// MetricCosine. For a dot-metric Build it aliases the embedding's
	// arena directly — zero copies; the index and the embedding are both
	// immutable after construction.
	vecs     []float64
	adj      csr
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

// csr is the frozen adjacency in compressed-sparse-row form, the exact
// layout index.bin stores. Node i owns the (node, layer) pairs
// first[i] .. first[i+1]-1, one per layer 0..level(i), and pair p's
// neighbor ids are lids[loff[p]:loff[p+1]].
type csr struct {
	first []uint32 // len n+1
	loff  []uint32 // len P+1, P = first[n]
	lids  []int32  // len L, L = loff[P]
}

// level returns the top layer of node id.
func (g *csr) level(id int32) int32 { return int32(g.first[id+1]-g.first[id]) - 1 }

func (g *csr) linksAt(id, lvl int32) []int32 {
	p := int(g.first[id]) + int(lvl)
	if p >= int(g.first[id+1]) {
		return nil
	}
	return g.lids[g.loff[p]:g.loff[p+1]]
}

// adjacency is what a layer search walks: the growable lists of an
// index under construction, or the frozen CSR arrays of a finished one.
type adjacency interface {
	linksAt(id, lvl int32) []int32
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
// symbol table, and the vector block is the embedding's contiguous
// arena — aliased directly for MetricDot, copied once (one memmove,
// then normalized in place) for MetricCosine. The graph construction
// arithmetic is identical to BuildVectors', so the two produce the same
// index for the same input.
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
	ix := &Index{opts: opts, dim: dim, syms: st}
	arena := e.Matrix().Data
	if opts.Metric == MetricCosine {
		ix.vecs = make([]float64, len(arena))
		copy(ix.vecs, arena)
		for i := 0; i < n; i++ {
			normalize(ix.vecs[i*dim : (i+1)*dim])
		}
	} else {
		ix.vecs = arena
	}
	if err := ix.wire(rand.New(rand.NewSource(opts.Seed))); err != nil {
		return nil, err
	}
	buildsTotal.Inc()
	buildSeconds.ObserveDuration(time.Since(start))
	return ix, nil
}

// BuildVectors indexes the given vectors, where vecs[i] is the vector
// for names[i]. Vectors are copied (and normalized for MetricCosine);
// the inputs are not retained.
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
	ix := &Index{opts: opts, dim: dim, syms: st, vecs: make([]float64, n*dim)}
	for i, v := range vecs {
		if len(v) != dim {
			return nil, fmt.Errorf("ann: vector %d has dim %d, want %d", i, len(v), dim)
		}
		row := ix.vecs[i*dim : (i+1)*dim]
		copy(row, v)
		if opts.Metric == MetricCosine {
			normalize(row)
		}
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
	links  [][][]int32 // links[node][layer] = neighbor ids
}

func (b *builder) linksAt(id, lvl int32) []int32 {
	ls := b.links[id]
	if int(lvl) >= len(ls) {
		return nil
	}
	return ls[lvl]
}

// wire draws every node's level up front from one seeded stream (the
// only randomness in the whole build), inserts sequentially, and
// freezes the result into ix.adj.
func (ix *Index) wire(rng *rand.Rand) error {
	n := ix.Len()
	b := &builder{ix: ix, levels: make([]int32, n), links: make([][][]int32, n)}
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

// freeze flattens the neighbor lists into ix.adj: one allocation per
// CSR array, whatever the node count.
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
	g := csr{
		first: make([]uint32, 1, len(b.links)+1),
		loff:  make([]uint32, 1, pairs+1),
		lids:  make([]int32, 0, links),
	}
	for _, ls := range b.links {
		for _, nbs := range ls {
			g.lids = append(g.lids, nbs...)
			g.loff = append(g.loff, uint32(len(g.lids)))
		}
		g.first = append(g.first, uint32(len(g.loff)-1))
	}
	b.ix.adj = g
	return nil
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

// vec returns the stored (possibly normalized) vector of node id.
func (ix *Index) vec(id int32) []float64 {
	return ix.vecs[int(id)*ix.dim : (int(id)+1)*ix.dim]
}

// dist is the internal ordering key: negated inner product, so smaller
// is more similar under both metrics (cosine vectors are pre-normalized).
func (ix *Index) dist(q []float64, id int32) float64 {
	v := ix.vec(id)
	var dot float64
	for i, x := range q {
		dot += x * v[i]
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

// SearchVector returns the k nearest stored vectors to q, best first.
// ef <= 0 uses Options.EfSearch; ef is raised to k when smaller.
func (ix *Index) SearchVector(q []float64, k, ef int) ([]Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("ann: query has dim %d, index has dim %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	if ix.opts.Metric == MetricCosine {
		qn := make([]float64, len(q))
		copy(qn, q)
		normalize(qn)
		q = qn
	}
	return ix.results(ix.search(q, k, ef)), nil
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
	hits := ix.search(ix.vec(id), k+1, ef)
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
// sorted best-first. q must already be normalized for MetricCosine.
func (ix *Index) search(q []float64, k, ef int) []cand {
	if ix.quant != nil {
		return ix.searchQuant(q, k, ef)
	}
	start := time.Now()
	if ef <= 0 {
		ef = ix.opts.EfSearch
	}
	if ef < k {
		ef = k
	}
	ep := ix.entry
	for lc := ix.maxLevel; lc > 0; lc-- {
		ep = ix.greedy(&ix.adj, q, ep, lc)
	}
	w := ix.searchLayer(&ix.adj, q, ep, ef, 0)
	if len(w) > k {
		w = w[:k]
	}
	queriesTotal.Inc()
	querySeconds.ObserveDuration(time.Since(start))
	return w
}

// greedy descends one layer of g: repeatedly move to the best neighbor
// until no neighbor improves on the current node.
func (ix *Index) greedy(g adjacency, q []float64, ep int32, lvl int32) int32 {
	best := cand{ix.dist(q, ep), ep}
	for {
		improved := false
		for _, nb := range g.linksAt(best.id, lvl) {
			c := cand{ix.dist(q, nb), nb}
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
// increment instead of a fresh map or an O(n) wipe. Sets are pooled per
// index (Index.visits); each is used by one search at a time.
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
	v.epoch++
	if v.epoch == 0 {
		// Wrapped: stamps left from 2^32 searches ago would read as
		// visited.
		clear(v.stamp)
		v.epoch = 1
	}
	return v
}

// visit marks id and reports whether it was unvisited.
func (v *visitSet) visit(id int32) bool {
	if v.stamp[id] == v.epoch {
		return false
	}
	v.stamp[id] = v.epoch
	return true
}

// searchLayer is the HNSW beam search on one layer of g: expand the
// closest unexpanded candidate until it cannot improve the current
// ef-sized result set. Returns candidates sorted best-first.
func (ix *Index) searchLayer(g adjacency, q []float64, ep int32, ef int, lvl int32) []cand {
	d0 := cand{ix.dist(q, ep), ep}
	visited := ix.acquireVisits()
	defer ix.visits.Put(visited)
	visited.visit(ep)
	candidates := candHeap{min: true}
	candidates.push(d0)
	results := candHeap{min: false}
	results.push(d0)
	for candidates.len() > 0 {
		c := candidates.pop()
		if results.len() >= ef && candLess(results.peek(), c) {
			break
		}
		for _, nb := range g.linksAt(c.id, lvl) {
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
	out := results.drain()
	sort.Slice(out, func(i, j int) bool { return candLess(out[i], out[j]) })
	return out
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
	q := ix.vec(i)
	ep := ix.entry
	for lc := ix.maxLevel; lc > b.levels[i]; lc-- {
		ep = ix.greedy(b, q, ep, lc)
	}
	top := min(b.levels[i], ix.maxLevel)
	for lc := top; lc >= 0; lc-- {
		w := ix.searchLayer(b, q, ep, ix.opts.EfConstruction, lc)
		nbs := ix.selectNeighbors(q, w, ix.opts.M)
		b.links[i][lc] = nbs
		limit := ix.maxConn(lc)
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

// selectNeighbors is the HNSW heuristic: walk candidates best-first,
// keeping one only if it is closer to q than to every neighbor already
// kept (so the kept set spreads across directions instead of
// clustering), then fill any remaining slots with the nearest pruned
// candidates to preserve connectivity.
func (ix *Index) selectNeighbors(q []float64, cands []cand, m int) []int32 {
	if len(cands) <= m {
		out := make([]int32, len(cands))
		for i, c := range cands {
			out[i] = c.id
		}
		return out
	}
	selected := make([]cand, 0, m)
	for _, c := range cands {
		if len(selected) == m {
			break
		}
		keep := true
		for _, s := range selected {
			if ix.dist(ix.vec(s.id), c.id) < c.dist {
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
	out := make([]int32, len(selected))
	for i, c := range selected {
		out[i] = c.id
	}
	return out
}

// shrink re-selects node id's neighbor list on lvl down to m entries
// using the same heuristic insertion uses.
func (b *builder) shrink(id, lvl int32, m int) {
	ix := b.ix
	v := ix.vec(id)
	cands := make([]cand, 0, len(b.links[id][lvl]))
	for _, nb := range b.links[id][lvl] {
		cands = append(cands, cand{ix.dist(v, nb), nb})
	}
	sort.Slice(cands, func(i, j int) bool { return candLess(cands[i], cands[j]) })
	b.links[id][lvl] = ix.selectNeighbors(v, cands, m)
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
