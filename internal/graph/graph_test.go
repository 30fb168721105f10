package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/textify"
)

// tt builds a TokenizedTable literal: rows of cells, each cell a token
// list.
func tt(table string, attrs []string, rows ...[][]string) *textify.TokenizedTable {
	return &textify.TokenizedTable{Table: table, Attrs: attrs, Cells: rows}
}

func cell(tokens ...string) []string { return tokens }

func TestBuildBasicStructure(t *testing.T) {
	// Two tables sharing the token "k1" across rows; "solo" appears in
	// only one row and must not get a value node. The schemas carry
	// filler attributes because theta_range is a fraction of ALL
	// attributes — realistic databases are wide.
	a := tt("a", []string{"id", "v", "f1", "f2"},
		[][]string{cell("k1"), cell("red"), cell("fa"), cell("fb")},
		[][]string{cell("k2"), cell("red"), cell("fa"), cell("fb")},
	)
	b := tt("b", []string{"ref", "f3"},
		[][]string{cell("k1"), cell("fc")},
		[][]string{cell("solo"), cell("fc")},
	)
	g, stats := Build([]*textify.TokenizedTable{a, b}, Options{})

	if got := g.CountKind(RowNode); got != 4 {
		t.Fatalf("row nodes = %d, want 4", got)
	}
	// Shared tokens: k1 (2 rows), red (2 rows). k2 and solo are rare.
	// Shared: k1, red, fa, fb, fc. Rare: k2, solo.
	if got := g.CountKind(ValueNode); got != 5 {
		t.Fatalf("value nodes = %d, want 5 (got stats %+v)", got, stats)
	}
	if stats.TokensRare != 2 {
		t.Errorf("rare tokens = %d, want 2", stats.TokensRare)
	}

	k1, ok := g.ValueNodeID("k1")
	if !ok {
		t.Fatal("no value node for k1")
	}
	if g.Degree(k1) != 2 {
		t.Errorf("deg(k1) = %d, want 2", g.Degree(k1))
	}
	rowA0, ok := g.RowNodeID("a", 0)
	if !ok {
		t.Fatal("row node a:0 missing")
	}
	// a:0 connects to k1, red, fa, fb (k2/solo dropped as rare).
	if g.Degree(rowA0) != 4 {
		t.Errorf("deg(a:0) = %d, want 4", g.Degree(rowA0))
	}
}

func TestMissingDataRemoval(t *testing.T) {
	// "?" appears under 3 of 4 attributes (> theta_range 50%): removed.
	a := tt("a", []string{"w", "x", "y", "z"},
		[][]string{cell("?"), cell("u1"), cell("?"), cell("s")},
		[][]string{cell("u2"), cell("?"), cell("u3"), cell("s")},
	)
	g, stats := Build([]*textify.TokenizedTable{a}, Options{})
	if _, ok := g.ValueNodeID("?"); ok {
		t.Error("missing marker got a value node")
	}
	if stats.TokensMissing != 1 {
		t.Errorf("TokensMissing = %d, want 1", stats.TokensMissing)
	}
	if _, ok := g.ValueNodeID("s"); !ok {
		t.Error("legitimate shared token lost")
	}
}

func TestThetaMinPrunesAccidentalAttribute(t *testing.T) {
	// "washington" votes: 24 under a.name, 1 under a.state. With
	// theta_min = 5% the state edge must be pruned. Filler attributes
	// keep two-of-five under the theta_range missing threshold.
	rows := make([][][]string, 25)
	for i := 0; i < 24; i++ {
		rows[i] = [][]string{cell("washington"), cell("ok"), cell("f1"), cell("f2"), cell("f3")}
	}
	rows[24] = [][]string{cell("other"), cell("washington"), cell("f1"), cell("f2"), cell("f3")}
	a := tt("a", []string{"name", "state", "fa", "fb", "fc"}, rows...)
	g, stats := Build([]*textify.TokenizedTable{a}, Options{ThetaMin: 0.05})

	w, ok := g.ValueNodeID("washington")
	if !ok {
		t.Fatal("washington value node missing")
	}
	if g.Degree(w) != 24 {
		t.Errorf("deg(washington) = %d, want 24 (state edge pruned)", g.Degree(w))
	}
	if stats.AttrsPruned == 0 {
		t.Error("no attributes pruned")
	}
}

func TestDisableRefinementKeepsEverything(t *testing.T) {
	a := tt("a", []string{"w", "x", "y", "z"},
		[][]string{cell("?"), cell("u"), cell("?"), cell("s")},
		[][]string{cell("v"), cell("?"), cell("w2"), cell("s")},
	)
	g, _ := Build([]*textify.TokenizedTable{a}, Options{DisableRefinement: true})
	if _, ok := g.ValueNodeID("?"); !ok {
		t.Error("refinement-off still removed the marker")
	}
}

func TestInverseDegreeWeighting(t *testing.T) {
	// "pop" shared by 4 rows (weight 1/4), "rare" by 2 (weight 1/2).
	a := tt("a", []string{"x", "y"},
		[][]string{cell("pop"), cell("rare")},
		[][]string{cell("pop"), cell("rare")},
		[][]string{cell("pop"), cell("q1")},
		[][]string{cell("pop"), cell("q2")},
	)
	g, _ := Build([]*textify.TokenizedTable{a}, Options{})
	if !g.Weighted {
		t.Fatal("graph not weighted by default")
	}
	pop, _ := g.ValueNodeID("pop")
	rare, _ := g.ValueNodeID("rare")
	if w := g.Weights(pop)[0]; w != 0.25 {
		t.Errorf("weight(pop edge) = %v, want 0.25", w)
	}
	if w := g.Weights(rare)[0]; w != 0.5 {
		t.Errorf("weight(rare edge) = %v, want 0.5", w)
	}

	gu, _ := Build([]*textify.TokenizedTable{a}, Options{Unweighted: true})
	if gu.Weighted {
		t.Error("Unweighted option ignored")
	}
	if gu.EdgeWeight(0, 0) != 1 {
		t.Error("unweighted edge weight != 1")
	}
}

func TestDedupePerRow(t *testing.T) {
	// The same token twice in one row (e.g. from a list) yields one edge.
	a := tt("a", []string{"tags"},
		[][]string{cell("x", "x")},
		[][]string{cell("x")},
	)
	g, _ := Build([]*textify.TokenizedTable{a}, Options{})
	x, _ := g.ValueNodeID("x")
	if g.Degree(x) != 2 {
		t.Errorf("deg(x) = %d, want 2 (deduped)", g.Degree(x))
	}
}

func TestPairwiseVsValueNodeEdgeCount(t *testing.T) {
	// 6 rows sharing one token: pairwise needs 15 edges, value nodes 6.
	rows := make([][][]string, 6)
	for i := range rows {
		rows[i] = [][]string{cell("shared")}
	}
	a := tt("a", []string{"x"}, rows...)
	pairwise := BuildPairwise([]*textify.TokenizedTable{a})
	valueNode, _ := Build([]*textify.TokenizedTable{a}, Options{})
	if pairwise.NumEdges() != 15 {
		t.Errorf("pairwise edges = %d, want 15", pairwise.NumEdges())
	}
	if valueNode.NumEdges() != 6 {
		t.Errorf("value-node edges = %d, want 6", valueNode.NumEdges())
	}
}

func TestAdjacencyCSRSymmetric(t *testing.T) {
	a := tt("a", []string{"x", "y"},
		[][]string{cell("p"), cell("q")},
		[][]string{cell("p"), cell("q")},
	)
	g, _ := Build([]*textify.TokenizedTable{a}, Options{})
	m := g.AdjacencyCSR()
	for i := 0; i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := int(m.ColIdx[p])
			if m.At(j, i) != m.Vals[p] {
				t.Fatalf("asymmetric adjacency at (%d,%d)", i, j)
			}
		}
	}
}

// TestAdjacencyCSRMatchesNewCSR: AdjacencyCSR, which sorts each
// adjacency list into its row, builds the same matrix, bit for bit, as
// matrix.NewCSR over one COO triple per adjacency entry, on weighted
// and unweighted Build outputs.
func TestAdjacencyCSRMatchesNewCSR(t *testing.T) {
	for _, unweighted := range []bool{false, true} {
		g, _ := Build(parallelFixture(), Options{Unweighted: unweighted, Workers: 1})
		var entries []matrix.COO
		for i := 0; i < g.NumNodes(); i++ {
			for k, j := range g.Neighbors(int32(i)) {
				entries = append(entries, matrix.COO{Row: i, Col: int(j), Val: g.EdgeWeight(int32(i), k)})
			}
		}
		want := matrix.NewCSR(g.NumNodes(), g.NumNodes(), entries)
		got := g.AdjacencyCSR()
		if got.NumRows != want.NumRows || got.NumCols != want.NumCols ||
			!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("unweighted=%v: structure differs from NewCSR", unweighted)
		}
		for p := range want.Vals {
			if math.Float64bits(got.Vals[p]) != math.Float64bits(want.Vals[p]) {
				t.Fatalf("unweighted=%v: value %d = %v, NewCSR has %v", unweighted, p, got.Vals[p], want.Vals[p])
			}
		}
		if !unweighted && !slices.ContainsFunc(want.Vals, func(v float64) bool { return v != 1 }) {
			t.Fatal("weighted fixture has only unit weights")
		}
	}
}

func TestNodeNames(t *testing.T) {
	g := New(false)
	r := g.AddRowNode("tbl", 7)
	v := g.AddValueNode("tok")
	c := g.AddColumnNode("attr")
	if g.NodeName(r) != "tbl:7" || g.NodeName(v) != "tok" || g.NodeName(c) != "col:attr" {
		t.Errorf("names = %q %q %q", g.NodeName(r), g.NodeName(v), g.NodeName(c))
	}
	// Interning.
	if g.AddRowNode("tbl", 7) != r || g.AddValueNode("tok") != v {
		t.Error("interning failed")
	}
	if g.Kind(r) != RowNode || g.Kind(v) != ValueNode || g.Kind(c) != ColumnNode {
		t.Error("kinds wrong")
	}
}

func TestMemoryEstimatesPositive(t *testing.T) {
	a := tt("a", []string{"x"},
		[][]string{cell("p")}, [][]string{cell("p")},
	)
	g, _ := Build([]*textify.TokenizedTable{a}, Options{})
	if g.EstimateMFMemoryBytes(64) <= 0 {
		t.Error("MF estimate not positive")
	}
	if g.EstimateRWMemoryBytes(80, 10) <= 0 {
		t.Error("RW estimate not positive")
	}
	// Weighted graphs estimate more RW memory than unweighted (alias
	// tables).
	gu, _ := Build([]*textify.TokenizedTable{a}, Options{Unweighted: true})
	if g.EstimateRWMemoryBytes(80, 10) <= gu.EstimateRWMemoryBytes(80, 10) {
		t.Error("weighted RW estimate not larger")
	}
}

// Property: the built graph is always bipartite between rows and values
// (Leva's construction never links two rows or two values directly) and
// every edge endpoint is valid.
func TestBuildBipartiteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		rows := make([][][]string, 3+rng.Intn(10))
		tokens := []string{"a", "b", "c", "d", "e", "f"}
		for i := range rows {
			rows[i] = [][]string{
				cell(tokens[rng.Intn(len(tokens))]),
				cell(tokens[rng.Intn(len(tokens))]),
			}
		}
		g, _ := Build([]*textify.TokenizedTable{tt("t", []string{"x", "y"}, rows...)}, Options{})
		for n := int32(0); n < int32(g.NumNodes()); n++ {
			for _, nb := range g.Neighbors(n) {
				if nb < 0 || int(nb) >= g.NumNodes() {
					return false
				}
				if g.Kind(n) == g.Kind(nb) {
					return false // same-kind edge: not bipartite
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func newRand(seed int64) *quickRand { return &quickRand{state: uint64(seed)*2654435761 + 1} }

// quickRand is a tiny deterministic generator so the property test does
// not depend on math/rand's global state.
type quickRand struct{ state uint64 }

func (r *quickRand) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}
