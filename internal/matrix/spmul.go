package matrix

import "repro/internal/parallel"

// chunkEntries is the length of one RowWriter chunk: 4,096 entries, a
// 16 KiB column block and a 32 KiB value block.
const chunkEntries = 4096

// RowWriter collects one shard's rows for ShardedCSR. Entries go into
// fixed-size chunks that are allocated once and never regrown, so a
// shard under assembly holds its entries plus at most one partly
// filled chunk, and growing it copies nothing.
type RowWriter struct {
	rowEnd  []int32 // the shard's RowPtr[lo+1:hi+1], shard-local until assembly
	rows    int     // rows ended so far
	cols    [][]int32
	vals    [][]float64
	full    int // entries in the full chunks of cols/vals
	curCols []int32
	curVals []float64
}

// Append adds one entry to the current row.
func (w *RowWriter) Append(col int32, val float64) {
	if len(w.curVals) == cap(w.curVals) {
		w.nextChunk()
	}
	w.curCols = append(w.curCols, col)
	w.curVals = append(w.curVals, val)
}

// nextChunk retires the current (full) chunk and starts an empty one.
func (w *RowWriter) nextChunk() {
	if cap(w.curVals) > 0 {
		w.cols = append(w.cols, w.curCols)
		w.vals = append(w.vals, w.curVals)
		w.full += len(w.curVals)
	}
	w.curCols = make([]int32, 0, chunkEntries)
	w.curVals = make([]float64, 0, chunkEntries)
}

// AppendRow appends row's entries, in any column order, as the current
// row's entries: stably sorted by column, with the values of equal
// columns summed in row's order (CSR.AppendRow). It sorts row in place.
func (w *RowWriter) AppendRow(row []Entry) {
	for _, e := range compactRow(row) {
		w.Append(e.Col, e.Val)
	}
}

// EndRow ends the current row; the shard's next row starts empty.
func (w *RowWriter) EndRow() {
	w.rowEnd[w.rows] = int32(w.nnz())
	w.rows++
}

func (w *RowWriter) nnz() int { return w.full + len(w.curVals) }

// copyTo copies the shard's entries into cols and vals, in row order.
func (w *RowWriter) copyTo(cols []int32, vals []float64) {
	n := 0
	for c := range w.cols {
		copy(cols[n:], w.cols[c])
		n += copy(vals[n:], w.vals[c])
	}
	copy(cols[n:], w.curCols)
	copy(vals[n:], w.curVals)
}

// ShardedCSR assembles a rows x cols CSR matrix by computing contiguous
// row ranges concurrently. fill is called once per shard with the
// global row range [lo, hi) and that shard's RowWriter, and must call
// EndRow once per row, in order, after appending the row's entries.
// The shards fill fixed-size chunks; once all are done, the chunks are
// copied in shard order into ColIdx and Vals allocated at exactly the
// matrix's NNZ. This is the one assembly path at every worker count,
// one shard included. Because every global row is produced by exactly
// one shard and shards concatenate in row order, the result is
// bit-identical to a sequential build at every worker count. This is
// the assembly primitive behind the parallel proximity-matrix build
// (WindowPMI) and the transition matrix it starts from.
func ShardedCSR(rows, cols, workers int, fill func(lo, hi int, w *RowWriter)) *CSR {
	out := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int32, rows+1)}
	shards := parallel.Shards(rows, workers)
	ws := make([]RowWriter, len(shards))
	parallel.For(rows, workers, func(s int, r parallel.Range) {
		w := &ws[s]
		w.rowEnd = out.RowPtr[r.Lo+1 : r.Hi+1]
		fill(r.Lo, r.Hi, w)
		if w.rows != r.Len() {
			panic("matrix: ShardedCSR fill ended the wrong number of rows")
		}
	})
	nnz := 0
	for s := range ws {
		nnz += ws[s].nnz()
	}
	out.ColIdx = make([]int32, nnz)
	out.Vals = make([]float64, nnz)
	base := 0
	for s := range ws {
		w := &ws[s]
		for i := range w.rowEnd {
			w.rowEnd[i] += int32(base)
		}
		n := w.nnz()
		w.copyTo(out.ColIdx[base:base+n], out.Vals[base:base+n])
		base += n
	}
	return out
}
