package ann

import (
	"fmt"
	"sort"
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
// normalized.
func (ix *Index) scan(q []float64, k int, exclude int32) []cand {
	cands := make([]cand, 0, ix.Len())
	for id := int32(0); int(id) < ix.Len(); id++ {
		if id == exclude {
			continue
		}
		cands = append(cands, cand{ix.dist(q, id), id})
	}
	sort.Slice(cands, func(i, j int) bool { return candLess(cands[i], cands[j]) })
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}
