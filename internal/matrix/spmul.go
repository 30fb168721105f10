package matrix

import "repro/internal/parallel"

// ShardedCSR assembles a rows x cols CSR matrix by computing contiguous
// row ranges concurrently and concatenating the fragments in shard
// order. fill is called once per shard with the global row range
// [lo, hi) and a fragment whose NumRows is hi-lo; it must populate the
// fragment's ColIdx, Vals and RowPtr using *local* row indices (global
// row lo is fragment row 0). Because every global row is produced by
// exactly one shard and fragments concatenate in row order, the result
// is bit-identical to a sequential build at every worker count. This is
// the assembly primitive behind the parallel proximity-matrix build
// (WindowPMI) and the transition matrix it starts from.
func ShardedCSR(rows, cols, workers int, fill func(lo, hi int, frag *CSR)) *CSR {
	shards := parallel.Shards(rows, workers)
	if len(shards) <= 1 {
		out := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int32, rows+1)}
		if rows > 0 {
			fill(0, rows, out)
		}
		return out
	}
	frags := make([]*CSR, len(shards))
	parallel.For(rows, workers, func(s int, r parallel.Range) {
		frag := &CSR{NumRows: r.Len(), NumCols: cols, RowPtr: make([]int32, r.Len()+1)}
		fill(r.Lo, r.Hi, frag)
		frags[s] = frag
	})
	nnz := 0
	for _, f := range frags {
		nnz += f.NNZ()
	}
	out := &CSR{
		NumRows: rows, NumCols: cols,
		RowPtr: make([]int32, 1, rows+1),
		ColIdx: make([]int32, 0, nnz),
		Vals:   make([]float64, 0, nnz),
	}
	for _, f := range frags {
		base := int32(len(out.Vals))
		for i := 0; i < f.NumRows; i++ {
			out.RowPtr = append(out.RowPtr, base+f.RowPtr[i+1])
		}
		out.ColIdx = append(out.ColIdx, f.ColIdx...)
		out.Vals = append(out.Vals, f.Vals...)
	}
	return out
}
