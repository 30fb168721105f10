package ann

import (
	"fmt"
	"sort"
	"time"
	"unsafe"

	"repro/internal/embed"
)

// int8 search path. Quantize attaches a symmetric int8 arena (see
// embed.QuantizedMatrix) to a built or loaded index; graph traversal
// then runs on int8 dot products with int32 accumulation — 8x less
// memory traffic per distance — and the final beam is re-ranked
// exactly in float64 before truncation to k, which is what keeps
// recall@10 >= 0.95 against brute force (asserted in quant_test.go).
// The float vectors are retained for the re-rank; under an mmap'd
// bundle they are file-backed pages the kernel can evict, so the
// resident per-vector cost of a quantized index is the int8 arena.

// maxQuantDim bounds the dimension so the int32 accumulator cannot
// overflow: 127*127*maxQuantDim < 2^31.
const maxQuantDim = 1 << 17

// Quantize switches the index's graph traversal to int8 arithmetic.
// When q is a quantized form of the index's own vector layout — same
// shape, and the metric is dot, whose vectors are stored raw — it is
// adopted directly (zero copy: a bundle's quant section serves
// straight from its buffer). Otherwise the index quantizes its stored
// vectors (normalized ones, for cosine) itself; pass nil to force
// that. Quantize must complete before the index is searched; it is
// not safe to call concurrently with searches.
func (ix *Index) Quantize(q *embed.QuantizedMatrix) error {
	if ix.dim > maxQuantDim {
		return fmt.Errorf("ann: cannot quantize dim %d (int32 dot-product accumulation is exact only up to dim %d)", ix.dim, maxQuantDim)
	}
	n := ix.Len()
	if q != nil && ix.opts.Metric == MetricDot && q.Rows == n && q.Cols == ix.dim {
		ix.quant = q
		return nil
	}
	qm := &embed.QuantizedMatrix{
		Rows:   n,
		Cols:   ix.dim,
		Data:   make([]int8, n*ix.dim),
		Scales: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		qm.Scales[i] = embed.QuantizeRow(ix.vec(int32(i)), qm.Data[i*ix.dim:(i+1)*ix.dim])
	}
	ix.quant = qm
	return nil
}

// Quantized reports whether searches run on the int8 arena.
func (ix *Index) Quantized() bool { return ix.quant != nil }

// QuantBytes is the quantized arena's memory footprint (0 when the
// index is not quantized). Compare with 8*Len()*Dim() for the float
// arena.
func (ix *Index) QuantBytes() int64 {
	if ix.quant == nil {
		return 0
	}
	return ix.quant.Bytes()
}

// SharesStorage reports whether the index borrows memory owned by e
// or q — the interned symbol table Build shares, the vector arena a
// dot-metric Build aliases, or the quantized arena Quantize adopts —
// rather than holding private copies. A serving layer about to unmap
// the buffer behind e and q must keep that buffer alive while an index
// for which this returns true is still queryable. An index restored by
// Load views only its own index.bin, so it shares storage only
// through an adopted q. Either argument may be nil.
func (ix *Index) SharesStorage(e *embed.Embedding, q *embed.QuantizedMatrix) bool {
	if q != nil && ix.quant == q {
		return true
	}
	if e == nil {
		return false
	}
	if ix.syms != nil && ix.syms == e.Symbols() {
		return true
	}
	a, b := ix.vecs, e.Matrix().Data
	return len(a) > 0 && len(b) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// distQ is dist over the int8 arena: negated reconstructed inner
// product. The int32 accumulator is exact (no rounding, no overflow
// for dim <= maxQuantDim), so quantized traversal is as deterministic
// as the float path.
func (ix *Index) distQ(q8 []int8, qScale float64, id int32) float64 {
	row := ix.quant.Row(int(id))
	var acc int32
	for i, b := range q8 {
		acc += int32(b) * int32(row[i])
	}
	return -(qScale * ix.quant.Scales[id] * float64(acc))
}

// searchQuant is the int8 twin of search: quantize the query once,
// traverse on int8 distances, then re-rank the whole final beam (up
// to ef candidates) in float64 and truncate to k. Re-ranking the full
// beam rather than a fixed top-C costs one float pass over at most ef
// vectors and removes the ordering error quantization introduces
// among the survivors.
func (ix *Index) searchQuant(q []float64, k, ef int) []cand {
	start := time.Now()
	if ef <= 0 {
		ef = ix.opts.EfSearch
	}
	if ef < k {
		ef = k
	}
	q8 := make([]int8, len(q))
	qScale := embed.QuantizeRow(q, q8)
	ep := ix.entry
	for lc := ix.maxLevel; lc > 0; lc-- {
		ep = ix.greedyQ(q8, qScale, ep, lc)
	}
	w := ix.searchLayerQ(q8, qScale, ep, ef, 0)
	quantRerankedTotal.Add(float64(len(w)))
	for i := range w {
		w[i].dist = ix.dist(q, w[i].id)
	}
	sort.Slice(w, func(i, j int) bool { return candLess(w[i], w[j]) })
	if len(w) > k {
		w = w[:k]
	}
	queriesTotal.Inc()
	quantQueriesTotal.Inc()
	querySeconds.ObserveDuration(time.Since(start))
	return w
}

// greedyQ is greedy on int8 distances.
func (ix *Index) greedyQ(q8 []int8, qScale float64, ep int32, lvl int32) int32 {
	best := cand{ix.distQ(q8, qScale, ep), ep}
	for {
		improved := false
		for _, nb := range ix.adj.linksAt(best.id, lvl) {
			c := cand{ix.distQ(q8, qScale, nb), nb}
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

// searchLayerQ is searchLayer on int8 distances.
func (ix *Index) searchLayerQ(q8 []int8, qScale float64, ep int32, ef int, lvl int32) []cand {
	d0 := cand{ix.distQ(q8, qScale, ep), ep}
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
		for _, nb := range ix.adj.linksAt(c.id, lvl) {
			if !visited.visit(nb) {
				continue
			}
			d := cand{ix.distQ(q8, qScale, nb), nb}
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
