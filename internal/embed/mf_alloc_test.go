package embed

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/synth"
	"repro/internal/textify"
)

// mfAllocBudget bounds the bytes one single-worker MF build allocates,
// as a multiple of its output arena (n·dim·8 bytes), on the
// BenchmarkEmbedMF graph (1804 nodes × 64 dims). Measured on that
// graph: 98.4 arenas with the four-pass windowed PMI and the
// clone-per-step Chebyshev filter, 26.8 with the fused pass and the
// rotating buffers, 13.4 with the randomized SVD in two reused buffers,
// the column-blocked Chebyshev filter and presized CSR assembly, 9.6
// with no V, U written into the SVD's test-matrix buffer and scaled in
// place, and the filter running in place on an I + A merged row by row,
// and 9.1 with the adjacency assembled row by row from the adjacency
// lists instead of through COO triples and a sort. At one worker the
// allocation volume is deterministic, so unlike peak RSS it does not
// depend on GC timing.
const mfAllocBudget = 9.5

func TestMFAllocationBudget(t *testing.T) {
	spec := synth.Genes(synth.GenesOptions{Scale: 0.2, Seed: 1})
	model, err := textify.Fit(spec.DB, textify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tok, err := model.TransformAll(spec.DB)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.Build(tok, graph.Options{})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := MF(g, MFOptions{Dim: 64, Seed: 1, Workers: 1})
	runtime.ReadMemStats(&after)

	arena := float64(e.Len() * e.Dim * 8)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / arena
	t.Logf("MF allocated %.1f arenas (%d nodes x %d dims)", ratio, e.Len(), e.Dim)
	if ratio > mfAllocBudget {
		t.Errorf("MF allocated %.1f arenas, budget %v", ratio, float64(mfAllocBudget))
	}
}
