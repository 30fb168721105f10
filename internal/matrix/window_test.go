package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/parallel"
)

// The windowed-PMI proximity used to be built as four whole-matrix
// passes: MulCSRPruneWorkers for each power, AddCSRWorkers into the
// running sum, ScaleCSR by 1/window, then prunePMI. WindowPMI fuses
// them into one row pass; the original kernels live on here, unchanged,
// as the oracle it must match bit for bit.

// MulCSRPrune computes the sparse product a*b, keeping at most topK
// entries per output row (the largest by magnitude; topK <= 0 keeps
// everything) and dropping entries below eps. Pruned sparse powers of
// the transition matrix are how the windowed (NetSMF-style) proximity
// matrix stays tractable on graphs with hub nodes.
func MulCSRPrune(a, b *CSR, topK int, eps float64) *CSR {
	return MulCSRPruneWorkers(a, b, topK, eps, 1)
}

// MulCSRPruneWorkers is MulCSRPrune with the output rows partitioned
// across workers (<= 0 means GOMAXPROCS). Each worker owns a contiguous
// row range and a private dense accumulator; the pruning decisions are
// per-row, so the product is bit-identical at every worker count.
func MulCSRPruneWorkers(a, b *CSR, topK int, eps float64, workers int) *CSR {
	if a.NumCols != b.NumRows {
		panic("matrix: MulCSRPrune shape mismatch")
	}
	return ShardedCSR(a.NumRows, b.NumCols, workers, func(lo, hi int, w *RowWriter) {
		// Dense accumulator with a touched-list, reset per row.
		acc := make([]float64, b.NumCols)
		touched := make([]int32, 0, 256)
		type entry struct {
			col int32
			val float64
		}
		row := make([]entry, 0, 256)

		for i := lo; i < hi; i++ {
			touched = touched[:0]
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				av := a.Vals[p]
				k := a.ColIdx[p]
				for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
					j := b.ColIdx[q]
					if acc[j] == 0 {
						touched = append(touched, j)
					}
					acc[j] += av * b.Vals[q]
				}
			}
			row = row[:0]
			for _, j := range touched {
				v := acc[j]
				acc[j] = 0
				if v > eps || v < -eps {
					row = append(row, entry{col: j, val: v})
				}
			}
			if topK > 0 && len(row) > topK {
				sort.Slice(row, func(x, y int) bool {
					ax, ay := row[x].val, row[y].val
					if ax < 0 {
						ax = -ax
					}
					if ay < 0 {
						ay = -ay
					}
					return ax > ay
				})
				row = row[:topK]
			}
			sort.Slice(row, func(x, y int) bool { return row[x].col < row[y].col })
			for _, e := range row {
				w.Append(e.col, e.val)
			}
			w.EndRow()
		}
	})
}

// AddCSR returns a + b (same shape).
func AddCSR(a, b *CSR) *CSR { return AddCSRWorkers(a, b, 1) }

// AddCSRWorkers is AddCSR with the output rows partitioned across
// workers (<= 0 means GOMAXPROCS); each row merges independently, so
// the sum is bit-identical at every worker count.
func AddCSRWorkers(a, b *CSR, workers int) *CSR {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols {
		panic("matrix: AddCSR shape mismatch")
	}
	return ShardedCSR(a.NumRows, a.NumCols, workers, func(lo, hi int, w *RowWriter) {
		for i := lo; i < hi; i++ {
			pa, pb := a.RowPtr[i], b.RowPtr[i]
			ea, eb := a.RowPtr[i+1], b.RowPtr[i+1]
			for pa < ea || pb < eb {
				switch {
				case pb >= eb || (pa < ea && a.ColIdx[pa] < b.ColIdx[pb]):
					w.Append(a.ColIdx[pa], a.Vals[pa])
					pa++
				case pa >= ea || b.ColIdx[pb] < a.ColIdx[pa]:
					w.Append(b.ColIdx[pb], b.Vals[pb])
					pb++
				default:
					w.Append(a.ColIdx[pa], a.Vals[pa]+b.Vals[pb])
					pa++
					pb++
				}
			}
			w.EndRow()
		}
	})
}

// ScaleCSR multiplies every stored value by s in place and returns m.
func ScaleCSR(m *CSR, s float64) *CSR {
	for i := range m.Vals {
		m.Vals[i] *= s
	}
	return m
}

// prunePMI maps windowed-transition probabilities to clipped shifted
// PMI, with the rows partitioned across workers.
func prunePMI(s *CSR, degree []float64, vol, tau, cap float64, workers int) *CSR {
	return ShardedCSR(s.NumRows, s.NumCols, workers, func(lo, hi int, w *RowWriter) {
		for i := lo; i < hi; i++ {
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				j := s.ColIdx[p]
				if int(j) == i {
					continue
				}
				dj := degree[j]
				if dj <= 0 || s.Vals[p] <= 0 {
					continue
				}
				v := math.Log(vol * s.Vals[p] / (tau * dj))
				if cap > 0 && v > cap {
					v = cap
				}
				if v > 0 {
					w.Append(j, v)
				}
			}
			w.EndRow()
		}
	})
}

// composeWindowPMI is the four-pass construction WindowPMI replaces.
func composeWindowPMI(p *CSR, window, topK int, eps float64, degree []float64, vol, tau, cap float64, workers int) *CSR {
	s := p
	acc := p
	for t := 2; t <= window; t++ {
		acc = MulCSRPruneWorkers(acc, p, topK, eps, workers)
		s = AddCSRWorkers(s, acc, workers)
	}
	if window > 1 {
		s = ScaleCSR(s, 1/float64(window))
	}
	return prunePMI(s, degree, vol, tau, cap, workers)
}

// transitionFixture returns a row-stochastic n×n matrix with a hub
// column (so the powers densify and topK has to prune), its column
// degrees with a few zeros (so the degree guard fires), and the volume.
func transitionFixture(n int, seed int64) (*CSR, []float64, float64) {
	rng := rand.New(rand.NewSource(seed))
	var entries []COO
	for i := 0; i < n; i++ {
		entries = append(entries, COO{Row: i, Col: 0, Val: 0.5})
		for k := 0; k < 6; k++ {
			entries = append(entries, COO{Row: i, Col: rng.Intn(n), Val: rng.Float64()})
		}
	}
	p := NewCSR(n, n, entries)
	sums := p.RowSums()
	inv := make([]float64, n)
	for i, v := range sums {
		inv[i] = 1 / v
	}
	p.ScaleRows(inv)
	degree := make([]float64, n)
	vol := 0.0
	for i := range degree {
		if i%11 != 3 {
			degree[i] = 1 + 9*rng.Float64()
		}
		vol += degree[i]
	}
	return p, degree, vol
}

// TestWindowPMIMatchesComposition: the fused pass equals the old
// four-pass composition bit for bit, with topK pruning and without, at
// every window and worker count.
func TestWindowPMIMatchesComposition(t *testing.T) {
	p, degree, vol := transitionFixture(120, 21)
	for _, window := range []int{1, 2, 3, 4} {
		for _, topK := range []int{6, 0} {
			for _, cap := range []float64{0, 1.5} {
				want := composeWindowPMI(p, window, topK, 1e-6, degree, vol, 1.3, cap, 1)
				if want.NNZ() == 0 {
					t.Fatalf("window=%d topK=%d: empty oracle", window, topK)
				}
				for _, w := range []int{1, 2, 4} {
					got := WindowPMI(p, window, topK, 1e-6, degree, vol, 1.3, cap, w)
					name := fmt.Sprintf("window=%d topK=%d cap=%v workers=%d", window, topK, cap, w)
					csrEqual(t, name, want, got)
				}
			}
		}
	}
	// The fixture must exercise pruning: without topK, P² rows outgrow 6.
	full := composeWindowPMI(p, 2, 0, 1e-6, degree, vol, 1.3, 0, 1)
	pruned := composeWindowPMI(p, 2, 6, 1e-6, degree, vol, 1.3, 0, 1)
	if full.NNZ() <= pruned.NNZ() {
		t.Fatalf("topK=6 pruned nothing (nnz %d vs %d)", pruned.NNZ(), full.NNZ())
	}
}

// TestWindowPMIByteBudget holds ShardedCSR's assembly to one copy: each
// shard fills fixed-size chunks, and the chunks are copied once into a
// ColIdx and Vals of exactly M's NNZ, at every worker count. Grown by
// append, a shard's arrays would allocate about five times their final
// size, and a second full-size concatenation would come on top.
func TestWindowPMIByteBudget(t *testing.T) {
	const n, window, topK = 3000, 2, 128
	p, degree, vol := transitionFixture(n, 23)
	for _, workers := range []int{1, 2} {
		var m *CSR
		got := allocatedBytes(func() {
			m = WindowPMI(p, window, topK, 1e-6, degree, vol, 1, 0, workers)
		})
		if cap(m.ColIdx) != len(m.ColIdx) || cap(m.Vals) != len(m.Vals) {
			t.Errorf("workers=%d: M's arrays have cap %d/%d for NNZ %d",
				workers, cap(m.ColIdx), cap(m.Vals), m.NNZ())
		}
		// M itself, then each shard's chunks: its entries rounded up to
		// whole chunks. Per worker, the dense row accumulator; the row
		// buffers (under 10 KiB at this fixture's row widths) ride in
		// smallBudget with the headers.
		budget := uint64(4*(n+1)+12*m.NNZ()) + smallBudget
		for _, r := range parallel.Shards(n, workers) {
			nnz := int(m.RowPtr[r.Hi] - m.RowPtr[r.Lo])
			chunks := (nnz + chunkEntries - 1) / chunkEntries
			budget += uint64(12*chunks*chunkEntries + 8*n)
		}
		t.Logf("WindowPMI workers=%d: NNZ %d, allocated %d bytes, budget %d", workers, m.NNZ(), got, budget)
		if got > budget {
			t.Errorf("WindowPMI workers=%d allocated %d bytes, budget %d", workers, got, budget)
		}
	}
}
