package ann

import (
	"fmt"
	"slices"
)

// BruteForceVector returns the exact k nearest stored vectors to q by
// scanning every vector — no graph traversal, no approximation. It is
// the recall oracle for the HNSW search: tests and the benchmark
// compare SearchVector against it. The O(n·dim) scan is far slower
// than the graph walk at serving sizes, so nothing serves from it.
// Ranking and tie-breaking match SearchVector exactly (descending
// score, ties by ascending id).
func (ix *Index) BruteForceVector(q []float64, k int) ([]Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("ann: query has dim %d, index has dim %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	return ix.results(ix.scan(normalized(q), k, -1)), nil
}

// BruteForceName returns the exact k nearest neighbors of an indexed
// entity (excluding itself) by full scan — the recall-oracle
// counterpart of SearchName. Unknown names return an error wrapping
// ErrUnknownName.
func (ix *Index) BruteForceName(name string, k int) ([]Result, error) {
	id, ok := ix.idOf(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	return ix.results(ix.scan(widen(nil, ix.vec(id)), k, id)), nil
}

// scan computes the exact top-k candidates for q over every stored
// vector, skipping exclude (pass -1 to keep all). q must already be
// normalized. A k-sized max-heap keeps the best k seen so far, and only
// those are sorted: candLess is a strict total order over distinct ids,
// so this returns exactly the first k of a full sort.
func (ix *Index) scan(q []float64, k int, exclude int32) []cand {
	top := candHeap{items: make([]cand, 0, min(k, ix.Len())+1)}
	for id := int32(0); int(id) < ix.Len(); id++ {
		if id == exclude {
			continue
		}
		c := cand{ix.dist(q, id), id}
		if top.len() < k {
			top.push(c)
		} else if candLess(c, top.peek()) {
			top.push(c)
			top.pop()
		}
	}
	slices.SortFunc(top.items, candCmp)
	return top.items
}
