package matrix

import (
	"math"
	"sort"
)

// WindowPMI builds the windowed shifted-PMI proximity matrix of the
// transition matrix p (the NetMF/NetSMF construction behind Leva's MF
// method):
//
//	S    = (P + P² + … + P^window) / window
//	M_ij = log(vol·S_ij / (tau·degree_j)),  kept when > 0, clipped at cap
//
// Each power P^t is pruned per row before it is summed: entries within
// eps of zero are dropped and only the topK largest by magnitude kept
// (topK <= 0 keeps all). The diagonal is dropped: bipartite walks
// return to their origin at every even step, and the resulting huge
// self-proximity would make the truncated SVD spend its dimension
// budget encoding node identity instead of structure. cap <= 0 leaves
// the PMI unclipped.
//
// Row i of every intermediate depends only on row i of the one before,
// so the whole chain runs as one row pass with per-worker scratch and
// only M is materialized. Rows are partitioned across workers (<= 0
// means GOMAXPROCS) and each is computed by one goroutine in the
// sequential order, so M is bit-identical at every worker count.
func WindowPMI(p *CSR, window, topK int, eps float64, degree []float64, vol, tau, cap float64, workers int) *CSR {
	if p.NumRows != p.NumCols || len(degree) != p.NumCols {
		panic("matrix: WindowPMI shape mismatch")
	}
	scale := 1 / float64(window)
	return ShardedCSR(p.NumRows, p.NumCols, workers, func(lo, hi int, frag *CSR) {
		w := &windowScratch{acc: make([]float64, p.NumCols)}
		for i := lo; i < hi; i++ {
			sumCols := p.ColIdx[p.RowPtr[i]:p.RowPtr[i+1]]
			sumVals := p.Vals[p.RowPtr[i]:p.RowPtr[i+1]]
			powCols, powVals := sumCols, sumVals
			for t := 2; t <= window; t++ {
				powCols, powVals = w.nextPower(powCols, powVals, p, topK, eps)
				sumCols, sumVals = w.add(sumCols, sumVals, powCols, powVals)
			}
			for k, j := range sumCols {
				if int(j) == i {
					continue
				}
				s := sumVals[k]
				if window > 1 {
					s *= scale
				}
				dj := degree[j]
				if dj <= 0 || s <= 0 {
					continue
				}
				v := math.Log(vol * s / (tau * dj))
				if cap > 0 && v > cap {
					v = cap
				}
				if v > 0 {
					frag.ColIdx = append(frag.ColIdx, j)
					frag.Vals = append(frag.Vals, v)
				}
			}
			frag.RowPtr[i-lo+1] = int32(len(frag.Vals))
		}
	})
}

// windowScratch is one worker's reusable row state for WindowPMI: a
// dense accumulator with its touched list, the entries of the power
// being pruned, the current power row, and the two buffers the running
// sum alternates between.
type windowScratch struct {
	acc      []float64
	touched  []int32
	row      []colVal
	powCols  []int32
	powVals  []float64
	sumCols  [2][]int32
	sumVals  [2][]float64
	sumFront int
}

type colVal struct {
	col int32
	val float64
}

// nextPower returns the pruned row (cols, vals)·p, sorted by column. The
// result aliases w.powCols/w.powVals, which the input may also alias:
// the input is fully read before the output is written.
func (w *windowScratch) nextPower(cols []int32, vals []float64, p *CSR, topK int, eps float64) ([]int32, []float64) {
	acc := w.acc
	w.touched = w.touched[:0]
	for x, k := range cols {
		av := vals[x]
		for q := p.RowPtr[k]; q < p.RowPtr[k+1]; q++ {
			j := p.ColIdx[q]
			if acc[j] == 0 {
				w.touched = append(w.touched, j)
			}
			acc[j] += av * p.Vals[q]
		}
	}
	row := w.row[:0]
	for _, j := range w.touched {
		v := acc[j]
		acc[j] = 0
		if v > eps || v < -eps {
			row = append(row, colVal{col: j, val: v})
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
	w.row = row
	w.powCols, w.powVals = w.powCols[:0], w.powVals[:0]
	for _, e := range row {
		w.powCols = append(w.powCols, e.col)
		w.powVals = append(w.powVals, e.val)
	}
	return w.powCols, w.powVals
}

// add merges the column-sorted rows a and b, summing shared columns as
// a+b, into the sum buffer a does not occupy.
func (w *windowScratch) add(aCols []int32, aVals []float64, bCols []int32, bVals []float64) ([]int32, []float64) {
	w.sumFront ^= 1
	cols, vals := w.sumCols[w.sumFront][:0], w.sumVals[w.sumFront][:0]
	pa, pb := 0, 0
	for pa < len(aCols) || pb < len(bCols) {
		switch {
		case pb >= len(bCols) || (pa < len(aCols) && aCols[pa] < bCols[pb]):
			cols = append(cols, aCols[pa])
			vals = append(vals, aVals[pa])
			pa++
		case pa >= len(aCols) || bCols[pb] < aCols[pa]:
			cols = append(cols, bCols[pb])
			vals = append(vals, bVals[pb])
			pb++
		default:
			cols = append(cols, aCols[pa])
			vals = append(vals, aVals[pa]+bVals[pb])
			pa++
			pb++
		}
	}
	w.sumCols[w.sumFront], w.sumVals[w.sumFront] = cols, vals
	return cols, vals
}
