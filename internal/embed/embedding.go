// Package embed turns Leva's relational graph into vector embeddings.
// It provides the two first-party methods the paper ships — randomized
// SVD matrix factorization (MF) and random-walk + SGNS (RW) — behind a
// plug-and-play interface, the memory-based auto-selection rule between
// them, and faithful reconstructions of the comparator methods from
// Section 6.3 (Word2Vec-direct, Node2Vec, EmbDI, DeepER).
package embed

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/matrix"
)

// Embedding maps node names to dense vectors. Row nodes are keyed
// "table:rowIdx"; value nodes are keyed by their token.
//
// Internally the names live in an interned SymbolTable (one byte blob
// plus offsets, binary-searched on lookup) and the vectors in one
// contiguous row-major float32 arena — the exact layout the version-6
// bundle format stores, so a loaded bundle's embedding is a set of
// views over the file bytes rather than a decoded copy. The methods
// compute in float64, but every vector is rounded to float32 once,
// when the embedding is built (NewEmbedding); readers widen the stored
// values back to float64 as they read them (Vector, AppendVector,
// MeanVector), which is exact.
type Embedding struct {
	// Dim is the vector dimensionality.
	Dim   int
	syms  *SymbolTable
	arena []float32 // Len() x Dim, row-major

	namesOnce sync.Once
	names     []string // lazily materialized Names() slice
}

// NewEmbedding builds an embedding whose i-th vector is row i of
// vectors, rounded to float32. The names are interned (copied once into
// the symbol table); the matrix is not retained.
func NewEmbedding(names []string, vectors *matrix.Dense) *Embedding {
	if len(names) != vectors.Rows {
		panic(fmt.Sprintf("embed: %d names for %d vectors", len(names), vectors.Rows))
	}
	st, err := NewSymbolTable(names)
	if err != nil {
		panic(err.Error()) // only reachable past a 4 GiB token blob
	}
	arena := make([]float32, len(vectors.Data))
	for i, v := range vectors.Data {
		arena[i] = float32(v)
	}
	e := &Embedding{Dim: vectors.Cols, syms: st, arena: arena}
	e.names = append([]string(nil), names...)
	return e
}

// NewEmbeddingTable wraps an already-built symbol table and a
// row-major float32 arena of dimension dim without copying either —
// the zero-copy path of the bundle reader. Arena row i is the vector
// for table symbol i.
func NewEmbeddingTable(st *SymbolTable, dim int, arena []float32) (*Embedding, error) {
	if dim < 0 || int64(len(arena)) != int64(st.Len())*int64(dim) {
		return nil, fmt.Errorf("embed: %d arena values for %d symbols of dim %d", len(arena), st.Len(), dim)
	}
	return &Embedding{Dim: dim, syms: st, arena: arena}, nil
}

// Len returns the number of embedded entities.
func (e *Embedding) Len() int { return e.syms.Len() }

// Symbols returns the interned name table (shared, immutable).
func (e *Embedding) Symbols() *SymbolTable { return e.syms }

// Names returns the embedded entity names in index order (shared). For
// an embedding loaded zero-copy from a bundle the slice is materialized
// on first call (string views over the interned blob, no byte copies)
// and cached.
func (e *Embedding) Names() []string {
	e.namesOnce.Do(func() {
		if e.names == nil {
			e.names = e.syms.AppendNames(nil)
		}
	})
	return e.names
}

// row returns the stored vector of symbol i (shared).
func (e *Embedding) row(i int) []float32 {
	return e.arena[i*e.Dim : (i+1)*e.Dim]
}

// Vector returns a fresh float64 copy of the vector for name and
// whether it exists. It allocates on every call; hot paths use
// AppendVector with a reused buffer instead.
func (e *Embedding) Vector(name string) ([]float64, bool) {
	i, ok := e.syms.Lookup(name)
	if !ok {
		return nil, false
	}
	return appendWidened(make([]float64, 0, e.Dim), e.row(i)), true
}

// AppendVector appends the vector for name, widened to float64, to dst
// and reports whether name exists (dst is returned unchanged if not).
// It allocates only when dst lacks the capacity for Dim more values.
func (e *Embedding) AppendVector(dst []float64, name string) ([]float64, bool) {
	i, ok := e.syms.Lookup(name)
	if !ok {
		return dst, false
	}
	return appendWidened(dst, e.row(i)), true
}

func appendWidened(dst []float64, v []float32) []float64 {
	for _, x := range v {
		dst = append(dst, float64(x))
	}
	return dst
}

// Has reports whether name is embedded.
func (e *Embedding) Has(name string) bool {
	return e.syms.Has(name)
}

// Arena returns the Len() x Dim row-major float32 vectors (shared; for
// a bundle-loaded embedding a view over the file bytes, so callers must
// not mutate it).
func (e *Embedding) Arena() []float32 { return e.arena }

// RowKey renders the canonical embedding key for a table row.
func RowKey(table string, row int) string {
	return fmt.Sprintf("%s:%d", table, row)
}

// ReduceDim projects the embedding to k dimensions with PCA fitted on
// its own vectors (widened to float64), the storage-saving path of
// paper Section 6.5.2.
func (e *Embedding) ReduceDim(k int) *Embedding {
	if k >= e.Dim {
		return e
	}
	x := matrix.NewDense(e.Len(), e.Dim)
	for i, v := range e.arena {
		x.Data[i] = float64(v)
	}
	pca := matrix.FitPCA(x, k)
	return NewEmbedding(e.Names(), pca.Transform(x))
}

// Subset returns a new embedding restricted to the given names; names
// missing from the embedding are skipped.
func (e *Embedding) Subset(names []string) *Embedding {
	kept := make([]string, 0, len(names))
	rows := make([][]float64, 0, len(names))
	for _, n := range names {
		if v, ok := e.Vector(n); ok {
			kept = append(kept, n)
			rows = append(rows, v)
		}
	}
	return NewEmbedding(kept, matrix.FromRows(rows))
}

// SortedNames returns the embedded names in lexical order (for
// deterministic iteration in tests and experiments).
func (e *Embedding) SortedNames() []string {
	out := append([]string(nil), e.Names()...)
	sort.Strings(out)
	return out
}

// MeanVector averages the vectors of the given names, skipping missing
// ones, accumulating the stored float32 values in float64. It reports
// how many names were found; a zero count yields a zero vector.
func (e *Embedding) MeanVector(names []string) ([]float64, int) {
	out := make([]float64, e.Dim)
	found := 0
	for _, n := range names {
		i, ok := e.syms.Lookup(n)
		if !ok {
			continue
		}
		found++
		for j, x := range e.row(i) {
			out[j] += float64(x)
		}
	}
	if found > 0 {
		inv := 1 / float64(found)
		for i := range out {
			out[i] *= inv
		}
	}
	return out, found
}
