package embed

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/textify"
)

// twoClusterTables builds two row clusters bridged by distinct shared
// tokens, so any sensible embedding separates them.
func twoClusterTables() []*textify.TokenizedTable {
	t := &textify.TokenizedTable{Table: "t", Attrs: []string{"a", "b", "c", "d"}}
	for i := 0; i < 10; i++ {
		tok := "left"
		if i >= 5 {
			tok = "right"
		}
		t.Cells = append(t.Cells, [][]string{
			{tok}, {tok + "2"}, {"f1"}, {"f2"},
		})
	}
	return []*textify.TokenizedTable{t}
}

// clusterScore returns mean intra-cluster minus inter-cluster cosine
// similarity of the 10 row nodes.
func clusterScore(e *Embedding) float64 {
	intra, inter := 0.0, 0.0
	nIntra, nInter := 0, 0
	for i := 0; i < 10; i++ {
		vi, _ := e.Vector(RowKey("t", i))
		for j := i + 1; j < 10; j++ {
			vj, _ := e.Vector(RowKey("t", j))
			s := matrix.CosineSimilarity(vi, vj)
			if (i < 5) == (j < 5) {
				intra += s
				nIntra++
			} else {
				inter += s
				nInter++
			}
		}
	}
	return intra/float64(nIntra) - inter/float64(nInter)
}

func TestMFSeparatesClusters(t *testing.T) {
	g, _ := graph.Build(twoClusterTables(), graph.Options{})
	e := MF(g, MFOptions{Dim: 8, Seed: 1})
	if e.Dim != 8 {
		t.Fatalf("dim = %d", e.Dim)
	}
	if s := clusterScore(e); s < 0.2 {
		t.Errorf("MF cluster separation = %v", s)
	}
}

func TestRWSeparatesClusters(t *testing.T) {
	g, _ := graph.Build(twoClusterTables(), graph.Options{})
	e := RW(g, RWOptions{Dim: 8, WalkLength: 20, WalksPerNode: 8, Epochs: 3, Seed: 1, Workers: 1})
	if s := clusterScore(e); s < 0.2 {
		t.Errorf("RW cluster separation = %v", s)
	}
}

func TestMFTinyGraphPadsToRequestedDim(t *testing.T) {
	// A 3-node graph cannot support 32 singular vectors; the embedding
	// must still come back at the requested width (zero-padded).
	tbl := &textify.TokenizedTable{Table: "t", Attrs: []string{"x"},
		Cells: [][][]string{{{"tok"}}, {{"tok"}}}}
	g, _ := graph.Build([]*textify.TokenizedTable{tbl}, graph.Options{})
	e := MF(g, MFOptions{Dim: 32, Seed: 1})
	if e.Dim != 32 {
		t.Fatalf("dim = %d, want 32", e.Dim)
	}
	v, ok := e.Vector(RowKey("t", 0))
	if !ok || len(v) != 32 {
		t.Fatalf("vector len = %d", len(v))
	}
}

func TestMFEmptyGraph(t *testing.T) {
	g := graph.New(true)
	e := MF(g, MFOptions{Dim: 4})
	if e.Len() != 0 {
		t.Error("empty graph produced vectors")
	}
}

func TestEmbeddingAPI(t *testing.T) {
	vecs := matrix.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	e := NewEmbedding([]string{"a", "b", "c"}, vecs)
	if e.Len() != 3 || e.Dim != 2 {
		t.Fatalf("len/dim = %d/%d", e.Len(), e.Dim)
	}
	if v, ok := e.Vector("b"); !ok || v[1] != 1 {
		t.Errorf("Vector(b) = %v, %v", v, ok)
	}
	if _, ok := e.Vector("zzz"); ok {
		t.Error("missing name found")
	}
	buf := make([]float64, 1, 8)
	if got, ok := e.AppendVector(buf, "c"); !ok || len(got) != 3 || got[1] != 1 || got[2] != 1 {
		t.Errorf("AppendVector(c) = %v, %v", got, ok)
	}
	if got, ok := e.AppendVector(buf, "zzz"); ok || len(got) != 1 {
		t.Errorf("AppendVector(zzz) = %v, %v", got, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.AppendVector(buf[:0], "a") }); allocs != 0 {
		t.Errorf("AppendVector into a large enough buffer allocates %v times", allocs)
	}
	if !e.Has("a") || e.Has("zzz") {
		t.Error("Has wrong")
	}
	mean, n := e.MeanVector([]string{"a", "b", "zzz"})
	if n != 2 || mean[0] != 0.5 || mean[1] != 0.5 {
		t.Errorf("MeanVector = %v (%d found)", mean, n)
	}
	sub := e.Subset([]string{"c", "zzz"})
	if sub.Len() != 1 || !sub.Has("c") {
		t.Error("Subset wrong")
	}
	sorted := e.SortedNames()
	if sorted[0] != "a" || sorted[2] != "c" {
		t.Errorf("SortedNames = %v", sorted)
	}
}

func TestReduceDim(t *testing.T) {
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{float64(i), float64(2 * i), 0.001 * float64(i%3)}
	}
	names := make([]string, 30)
	for i := range names {
		names[i] = RowKey("t", i)
	}
	e := NewEmbedding(names, matrix.FromRows(rows))
	r := e.ReduceDim(1)
	if r.Dim != 1 || r.Len() != 30 {
		t.Fatalf("reduced dim/len = %d/%d", r.Dim, r.Len())
	}
	// Reducing to >= dim is a no-op.
	if e.ReduceDim(10) != e {
		t.Error("ReduceDim above dim did not return original")
	}
}

func TestSelect(t *testing.T) {
	g, _ := graph.Build(twoClusterTables(), graph.Options{})
	if m := Select(MethodMF, g, 8, 1); m != MethodMF {
		t.Error("explicit method overridden")
	}
	if m := Select(MethodAuto, g, 8, 0); m != MethodMF {
		t.Error("unlimited budget did not pick MF")
	}
	if m := Select(MethodAuto, g, 8, 1); m != MethodRW {
		t.Error("tiny budget did not fall back to RW")
	}
	big := g.EstimateMFMemoryBytes(8) + 1
	if m := Select(MethodAuto, g, 8, big); m != MethodMF {
		t.Error("sufficient budget did not pick MF")
	}
}

func TestBaselineEmbeddersProduceRowVectors(t *testing.T) {
	tables := twoClusterTables()
	opts := BaselineOptions{Dim: 8, Seed: 2, WalkLength: 15, WalksPerNode: 4, Epochs: 2, Workers: 1}
	for name, e := range map[string]*Embedding{
		"word2vec": Word2VecDirect(tables, opts),
		"node2vec": Node2Vec(tables, opts),
		"embdi":    EmbDIStyle(tables, opts),
		"deeper":   DeepERStyle(tables, opts),
	} {
		for i := 0; i < 10; i++ {
			if _, ok := e.Vector(RowKey("t", i)); !ok {
				t.Errorf("%s: no vector for row %d", name, i)
			}
		}
		if _, ok := e.Vector("left"); !ok {
			t.Errorf("%s: no vector for token", name)
		}
		if e.Dim != 8 {
			t.Errorf("%s: dim = %d", name, e.Dim)
		}
	}
}

func TestEmbDIGraphHasColumnNodes(t *testing.T) {
	g := BuildEmbDIGraph(twoClusterTables())
	if got := g.CountKind(graph.ColumnNode); got != 4 {
		t.Errorf("column nodes = %d, want 4", got)
	}
	if g.CountKind(graph.RowNode) != 10 {
		t.Errorf("row nodes = %d", g.CountKind(graph.RowNode))
	}
	// Value nodes connect to both rows and columns: token "left"
	// should have degree 6 (5 rows + 1 column).
	left, ok := g.ValueNodeID("left")
	if !ok {
		t.Fatal("no left node")
	}
	if g.Degree(left) != 6 {
		t.Errorf("deg(left) = %d, want 6", g.Degree(left))
	}
}

func TestMFWindowedVariant(t *testing.T) {
	g, _ := graph.Build(twoClusterTables(), graph.Options{})
	e := MF(g, MFOptions{Dim: 8, Window: 5, Seed: 3})
	if s := clusterScore(e); s < 0.2 {
		t.Errorf("windowed MF separation = %v", s)
	}
	e2 := MF(g, MFOptions{Dim: 8, Window: 1, Seed: 3, NoSpectralPropagation: true})
	if s := clusterScore(e2); s < 0.05 {
		t.Errorf("plain 1-hop MF separation = %v", s)
	}
}
