package ann

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/embed"
	"repro/internal/matrix"
)

// TestCandCmpSortsLikeSortSlice: the build, the query path and the
// brute-force scan sort with slices.SortFunc(candCmp), where they used
// sort.Slice with candLess. Both pdqsorts come from one template and
// ask the same questions in the same order, so they must permute any
// input identically, including ties (equal distances, equal ids) and
// NaN distances, where candLess is not a strict order at all.
func TestCandCmpSortsLikeSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dists := []float64{-1, -0.5, -0.5, 0, math.Copysign(0, -1), 0.25, math.NaN()}
	for _, n := range []int{0, 1, 2, 11, 12, 13, 50, 200, 1000, 5000} {
		for trial := 0; trial < 4; trial++ {
			in := make([]cand, n)
			for i := range in {
				d := rng.NormFloat64()
				if trial%2 == 0 {
					d = dists[rng.Intn(len(dists))]
				}
				in[i] = cand{d, int32(rng.Intn(max(n/2, 1)))}
			}
			if trial == 3 {
				// Sorted and reversed runs reach pdqsort's pattern
				// breaking and partial insertion sort paths.
				sort.Slice(in, func(i, j int) bool { return in[i].id < in[j].id })
				slices.Reverse(in[:n/2])
			}
			want := slices.Clone(in)
			sort.Slice(want, func(i, j int) bool { return candLess(want[i], want[j]) })
			got := slices.Clone(in)
			slices.SortFunc(got, candCmp)
			for i := range want {
				if math.Float64bits(got[i].dist) != math.Float64bits(want[i].dist) || got[i].id != want[i].id {
					t.Fatalf("n=%d trial %d: element %d is %v, sort.Slice gives %v", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// fullSortScan is the brute-force scan as it was before it kept a
// k-sized heap: every candidate, fully sorted, truncated to k.
func fullSortScan(ix *Index, q []float64, k int, exclude int32) []cand {
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

// TestScanMatchesFullSort: the heap-selecting scan returns exactly the
// full sort's first k. Every third row repeats an earlier one, so many
// distances tie and only the id breaks them.
func TestScanMatchesFullSort(t *testing.T) {
	const n, dim = 90, 6
	rng := rand.New(rand.NewSource(23))
	names := make([]string, n)
	vecs := make([][]float64, n)
	for i := range vecs {
		names[i] = fmt.Sprintf("v%d", i)
		if i%3 == 2 {
			vecs[i] = slices.Clone(vecs[rng.Intn(i)])
			continue
		}
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = rng.NormFloat64()
		}
	}
	ix, err := BuildVectors(names, vecs, Options{M: 4, EfConstruction: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stored rows (one of them repeated) and two fresh directions.
	queries := [][]float64{widen(nil, ix.vec(2)), widen(nil, ix.vec(5)), normalized(vecs[40])}
	for range 2 {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries = append(queries, normalized(q))
	}
	for qi, q := range queries {
		for _, k := range []int{1, 10, n - 1, n, n + 5} {
			for _, exclude := range []int32{-1, 0, 5, n - 1} {
				want := fullSortScan(ix, q, k, exclude)
				got := ix.scan(q, k, exclude)
				if !slices.Equal(got, want) {
					t.Fatalf("query %d k=%d exclude=%d: scan %v, full sort %v", qi, k, exclude, got, want)
				}
			}
		}
	}
}

// TestBuildAllocBudget: an HNSW build allocates what it keeps plus a
// fixed slack, not scratch per insertion. What it keeps, written out:
// the float32 vectors, the levels, the per-node neighbor lists at the
// capacity insert gives them (one past the layer's cap), the visited
// set, and the frozen CSR arrays. The scratch heaps and candidate
// buffers are reused across insertions and fit in the slack; allocated
// per use, they add 54 MB to this build, 64 times its budget.
func TestBuildAllocBudget(t *testing.T) {
	const n, dim = 2000, 16
	names, vecs := randomCollection(n, dim, 41)
	e := embed.NewEmbedding(names, matrix.FromRows(vecs))
	opts := Options{Seed: 1}.withDefaults()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := Build(e, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}

	var lists, pairs int
	for id := int32(0); id < n; id++ {
		levels := int(ix.narrow.level(id)) + 1
		pairs += levels
		lists += 24*levels + 4*(2*opts.M+1) + 4*(levels-1)*(opts.M+1)
	}
	vectors, levels, visited := 4*n*dim, 4*n, 4*n
	frozen := 4*(n+1) + 4*(pairs+1) + 2*len(ix.narrow.lids)
	const slack = 256 << 10
	budget := uint64(vectors + levels + lists + visited + frozen + slack)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Build of %d x %d allocated %d bytes, budget %d (frozen CSR %d bytes)", n, dim, got, budget, frozen)
	if got > budget {
		t.Errorf("Build of %d x %d allocated %d bytes, budget %d", n, dim, got, budget)
	}
}
