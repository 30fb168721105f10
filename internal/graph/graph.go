// Package graph implements Leva's graph representation of relational
// data (paper Section 3): row nodes and value nodes, edge construction
// via shared tokens, the attribute-voting refinement that removes
// missing-data tokens and syntactic collisions, and inverse-degree edge
// weighting.
package graph

import (
	"fmt"

	"repro/internal/matrix"
)

// NodeKind distinguishes the node types of the relational graph.
type NodeKind uint8

const (
	// RowNode represents one row of one table.
	RowNode NodeKind = iota
	// ValueNode represents a shared token; it connects every row node
	// containing that token.
	ValueNode
	// ColumnNode represents an attribute. Leva's own construction does
	// not create column nodes; the EmbDI-style comparator graph does.
	ColumnNode
)

// String names the kind for logs and DOT dumps.
func (k NodeKind) String() string {
	switch k {
	case RowNode:
		return "row"
	case ValueNode:
		return "value"
	case ColumnNode:
		return "column"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// RowRef identifies the table row a RowNode stands for.
type RowRef struct {
	Table string // source table name
	Row   int32  // row index within that table
}

// Graph is an undirected weighted multigraph over row, value and
// (optionally) column nodes, stored as adjacency lists.
type Graph struct {
	kinds  []NodeKind
	tokens []string // token for value/column nodes, "" for row nodes
	rows   []RowRef // ref for row nodes, zero for others

	adj [][]int32
	w   [][]float64 // nil when the graph is unweighted

	rowIndex   map[RowRef]int32
	valueIndex map[string]int32

	// Weighted reports whether edge weights are attached.
	Weighted bool
}

// New returns an empty graph.
func New(weighted bool) *Graph {
	return &Graph{
		rowIndex:   make(map[RowRef]int32),
		valueIndex: make(map[string]int32),
		Weighted:   weighted,
	}
}

// NumNodes returns the total node count.
func (g *Graph) NumNodes() int { return len(g.kinds) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n / 2
}

// Kind returns the node's kind.
func (g *Graph) Kind(n int32) NodeKind { return g.kinds[n] }

// Token returns the token of a value or column node ("" for row nodes).
func (g *Graph) Token(n int32) string { return g.tokens[n] }

// Ref returns the row reference of a row node.
func (g *Graph) Ref(n int32) RowRef { return g.rows[n] }

// Degree returns the number of incident edges.
func (g *Graph) Degree(n int32) int { return len(g.adj[n]) }

// Neighbors returns the adjacency list of n (shared, do not mutate).
func (g *Graph) Neighbors(n int32) []int32 { return g.adj[n] }

// Weights returns the edge weights parallel to Neighbors, or nil for an
// unweighted graph.
func (g *Graph) Weights(n int32) []float64 {
	if g.w == nil {
		return nil
	}
	return g.w[n]
}

// RowNodeID returns the node for (table, row) if present.
func (g *Graph) RowNodeID(table string, row int) (int32, bool) {
	id, ok := g.rowIndex[RowRef{Table: table, Row: int32(row)}]
	return id, ok
}

// ValueNodeID returns the node for a token if present.
func (g *Graph) ValueNodeID(token string) (int32, bool) {
	id, ok := g.valueIndex[token]
	return id, ok
}

// AddRowNode interns a row node and returns its id.
func (g *Graph) AddRowNode(table string, row int) int32 {
	ref := RowRef{Table: table, Row: int32(row)}
	if id, ok := g.rowIndex[ref]; ok {
		return id
	}
	id := g.addNode(RowNode, "", ref)
	g.rowIndex[ref] = id
	return id
}

// AddValueNode interns a value node for token and returns its id.
func (g *Graph) AddValueNode(token string) int32 {
	if id, ok := g.valueIndex[token]; ok {
		return id
	}
	id := g.addNode(ValueNode, token, RowRef{})
	g.valueIndex[token] = id
	return id
}

// AddColumnNode interns a column node (used by comparator graphs).
func (g *Graph) AddColumnNode(name string) int32 {
	key := "\x00col\x00" + name
	if id, ok := g.valueIndex[key]; ok {
		return id
	}
	id := g.addNode(ColumnNode, name, RowRef{})
	g.valueIndex[key] = id
	return id
}

func (g *Graph) addNode(kind NodeKind, token string, ref RowRef) int32 {
	id := int32(len(g.kinds))
	g.kinds = append(g.kinds, kind)
	g.tokens = append(g.tokens, token)
	g.rows = append(g.rows, ref)
	g.adj = append(g.adj, nil)
	if g.Weighted {
		g.w = append(g.w, nil)
	}
	return id
}

// AddEdge inserts an undirected edge with weight w (ignored when the
// graph is unweighted). It does not deduplicate; builders are expected
// to dedupe per (row, value) pair.
func (g *Graph) AddEdge(a, b int32, weight float64) {
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	if g.Weighted {
		g.w[a] = append(g.w[a], weight)
		g.w[b] = append(g.w[b], weight)
	}
}

// EdgeWeight returns the weight of the k-th edge out of n (1 for
// unweighted graphs).
func (g *Graph) EdgeWeight(n int32, k int) float64 {
	if g.w == nil {
		return 1
	}
	return g.w[n][k]
}

// NodesOfKind returns all node ids of the given kind.
func (g *Graph) NodesOfKind(kind NodeKind) []int32 {
	var out []int32
	for i, k := range g.kinds {
		if k == kind {
			out = append(out, int32(i))
		}
	}
	return out
}

// CountKind returns how many nodes have the given kind.
func (g *Graph) CountKind(kind NodeKind) int {
	n := 0
	for _, k := range g.kinds {
		if k == kind {
			n++
		}
	}
	return n
}

// NodeName returns a stable human-readable identifier used as the
// embedding key: "table:rowIdx" for rows, the token for values, and
// "col:name" for column nodes.
func (g *Graph) NodeName(n int32) string {
	switch g.kinds[n] {
	case RowNode:
		return g.rows[n].Table + ":" + itoa(int(g.rows[n].Row))
	case ColumnNode:
		return "col:" + g.tokens[n]
	default:
		return g.tokens[n]
	}
}

func itoa(i int) string {
	return fmt.Sprintf("%d", i)
}

// AdjacencyCSR exports the (symmetric) weighted adjacency matrix. Each
// row is node i's adjacency list sorted by column, repeated neighbors
// summed in adjacency order (matrix.CSR.AppendRow).
func (g *Graph) AdjacencyCSR() *matrix.CSR {
	n := g.NumNodes()
	nnz := 2 * g.NumEdges()
	m := &matrix.CSR{NumRows: n, NumCols: n, RowPtr: make([]int32, n+1),
		ColIdx: make([]int32, 0, nnz), Vals: make([]float64, 0, nnz)}
	var row []matrix.Entry
	for i := 0; i < n; i++ {
		row = row[:0]
		for k, j := range g.adj[i] {
			row = append(row, matrix.Entry{Col: j, Val: g.EdgeWeight(int32(i), k)})
		}
		m.AppendRow(row)
		m.RowPtr[i+1] = int32(len(m.Vals))
	}
	return m
}

// EstimateMFMemoryBytes estimates the working-set size of the matrix
// factorization path: the CSR proximity matrix plus the dense range
// sampler and factors. Leva's auto-selection compares this against the
// caller's memory budget (paper Section 4.2).
//
// The dense term still counts four n×dim buffers: Y/Q, Ω/Bt, U and V.
// The SVD now keeps only two, n×(dim+8) each: it computes no V, and U
// is written into Bt's buffer. The formula is kept as it is because
// changing it moves embed.Select's MF/RW choice; recalibrating it
// against measured peaks is ROADMAP.md item 9 ("make the estimator
// honest").
func (g *Graph) EstimateMFMemoryBytes(dim int) int64 {
	n := int64(g.NumNodes())
	nnz := int64(2 * g.NumEdges())
	csr := nnz*(8+4) + (n+1)*4
	dense := 4 * n * int64(dim) * 8 // Y/Q, Ω/Bt, U and V (see above)
	return csr + dense
}

// EstimateRWMemoryBytes estimates the working set of the random-walk
// path: adjacency lists, optional alias tables, and the in-flight walk
// corpus chunk.
func (g *Graph) EstimateRWMemoryBytes(walkLen, walksPerNode int) int64 {
	n := int64(g.NumNodes())
	deg := int64(2 * g.NumEdges())
	adjacency := deg * 4
	var alias int64
	if g.Weighted {
		alias = deg * (8 + 4) // prob + alias entry per edge
	}
	corpusChunk := int64(walkLen) * n / 8 * 4 // walks stream in chunks
	_ = walksPerNode
	return adjacency + alias + corpusChunk
}
