package ann

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/embed"
)

// int8 search path. Quantize attaches a symmetric int8 arena (see
// embed.QuantizedMatrix) to a built or loaded index; graph traversal
// then runs on int8 dot products with int32 accumulation — 4x less
// memory traffic per distance than the float32 vectors — and the final
// beam is re-ranked exactly (float64 accumulation over the widened
// float32 vectors) before truncation to k, which is what keeps
// recall@10 >= 0.95 against brute force (asserted in quant_test.go).
// The float vectors are retained for the re-rank, so the int8 arena
// is heap memory on top of them: it adds about a quarter to the
// index's vector bytes when those were read from index.bin; a mapped
// index's vectors are resident only once searches have touched them.

// maxQuantDim bounds the dimension so the int32 accumulator cannot
// overflow: 127*127*maxQuantDim < 2^31.
const maxQuantDim = 1 << 17

// Quantize switches the index's graph traversal to int8 arithmetic
// over a quantization of its own stored vectors (normalized ones, for
// cosine). q must be nil: an index never adopts an arena another
// artifact owns. embed.Quantize widens the float32 rows one at a
// time, so this allocates the int8 arena, its scales and one row,
// never a float64 copy of the index. Quantize must complete before the index is searched; it is not safe
// to call concurrently with searches.
func (ix *Index) Quantize(q *embed.QuantizedMatrix) error {
	if q != nil {
		return errors.New("ann: Quantize quantizes the index's own vectors; pass nil")
	}
	if ix.dim > maxQuantDim {
		return fmt.Errorf("ann: cannot quantize dim %d (int32 dot-product accumulation is exact only up to dim %d)", ix.dim, maxQuantDim)
	}
	ix.quant = embed.Quantize(ix.Len(), ix.dim, ix.vecs)
	return nil
}

// Quantized reports whether searches run on the int8 arena.
func (ix *Index) Quantized() bool { return ix.quant != nil }

// QuantBytes is the quantized arena's memory footprint (0 when the
// index is not quantized). Compare with 4*Len()*Dim() for the float32
// vectors.
func (ix *Index) QuantBytes() int64 {
	if ix.quant == nil {
		return 0
	}
	return ix.quant.Bytes()
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
	ef = ix.beamWidth(k, ef)
	q8 := make([]int8, len(q))
	qScale := embed.QuantizeRow(q, q8)
	var w []cand
	if narrowIDs(ix.Len()) {
		w = descendQ(ix, ix.narrow, q8, qScale, ef)
	} else {
		w = descendQ(ix, ix.wide, q8, qScale, ef)
	}
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

// descendQ is descend on int8 distances.
func descendQ[T linkID, G adjacency[T]](ix *Index, g G, q8 []int8, qScale float64, ef int) []cand {
	ep := ix.entry
	for lc := ix.maxLevel; lc > 0; lc-- {
		ep = greedyQ(ix, g, q8, qScale, ep, lc)
	}
	return searchLayerQ(ix, g, q8, qScale, ep, ef, 0)
}

// greedyQ is greedy on int8 distances.
func greedyQ[T linkID, G adjacency[T]](ix *Index, g G, q8 []int8, qScale float64, ep int32, lvl int32) int32 {
	best := cand{ix.distQ(q8, qScale, ep), ep}
	for {
		improved := false
		for _, nb := range g.linksAt(best.id, lvl) {
			c := cand{ix.distQ(q8, qScale, int32(nb)), int32(nb)}
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
func searchLayerQ[T linkID, G adjacency[T]](ix *Index, g G, q8 []int8, qScale float64, ep int32, ef int, lvl int32) []cand {
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
		for _, link := range g.linksAt(c.id, lvl) {
			nb := int32(link)
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
