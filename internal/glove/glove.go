// Package glove implements GloVe (Pennington et al., paper reference
// [32]) over token-id co-occurrence statistics: weighted least squares
// on log co-occurrence counts, trained with AdaGrad. Leva's embedding
// construction stage is deliberately plug-and-play (paper Section 4.2);
// this package is the third first-class method demonstrating that
// interface, next to the MF and RW defaults.
package glove

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// Options configures GloVe training.
type Options struct {
	// Dim is the embedding size. Default 100.
	Dim int
	// Epochs over the co-occurrence pairs. Default 15.
	Epochs int
	// LearningRate is the AdaGrad step. Default 0.05.
	LearningRate float64
	// XMax and Alpha shape the weighting f(x) = min(1, (x/XMax)^Alpha).
	// Defaults 100 and 0.75.
	XMax  float64
	Alpha float64
	// Seed drives initialization and pair shuffling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Dim <= 0 {
		o.Dim = 100
	}
	if o.Epochs <= 0 {
		o.Epochs = 15
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.05
	}
	if o.XMax <= 0 {
		o.XMax = 100
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.75
	}
	return o
}

// Cooc is one co-occurrence observation: tokens I and J co-occurred
// with total weight X (counts or window-discounted counts).
type Cooc struct {
	I, J int32
	X    float64
}

// Model holds trained main and context vectors; the conventional GloVe
// output embedding is their sum.
type Model struct {
	Dim  int
	w    []float64 // vocab x dim main vectors
	wCtx []float64 // vocab x dim context vectors
	b    []float64
	bCtx []float64
}

// Vector returns the output embedding (main + context) for token id.
func (m *Model) Vector(id int32) []float64 {
	out := make([]float64, m.Dim)
	base := int(id) * m.Dim
	for k := 0; k < m.Dim; k++ {
		out[k] = m.w[base+k] + m.wCtx[base+k]
	}
	return out
}

// CountCooccurrence accumulates symmetric window-discounted pair counts
// from token-id sequences, the statistic GloVe factorizes. Pairs at
// distance d contribute 1/d, as in the reference implementation. The
// pairs come back sorted by (I, J).
func CountCooccurrence(corpus [][]int32, window int) []Cooc {
	if window <= 0 {
		window = 5
	}
	type key struct{ i, j int32 }
	counts := make(map[key]float64)
	for _, seq := range corpus {
		for pos, center := range seq {
			for off := 1; off <= window && pos+off < len(seq); off++ {
				other := seq[pos+off]
				a, b := center, other
				if a > b {
					a, b = b, a
				}
				counts[key{a, b}] += 1 / float64(off)
			}
		}
	}
	out := make([]Cooc, 0, len(counts))
	for k, x := range counts {
		out = append(out, Cooc{I: k.i, J: k.j, X: x})
	}
	// Map iteration order is random; Train's seeded shuffle is only
	// reproducible from a fixed starting order.
	slices.SortFunc(out, func(a, b Cooc) int {
		if c := cmp.Compare(a.I, b.I); c != 0 {
			return c
		}
		return cmp.Compare(a.J, b.J)
	})
	return out
}

// Train fits GloVe on co-occurrence pairs over a vocabulary of the
// given size. Pairs are treated symmetrically.
func Train(pairs []Cooc, vocabSize int, opts Options) *Model {
	opts = opts.withDefaults()
	m := &Model{
		Dim:  opts.Dim,
		w:    make([]float64, vocabSize*opts.Dim),
		wCtx: make([]float64, vocabSize*opts.Dim),
		b:    make([]float64, vocabSize),
		bCtx: make([]float64, vocabSize),
	}
	if vocabSize == 0 || len(pairs) == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := range m.w {
		m.w[i] = (rng.Float64() - 0.5) / float64(opts.Dim)
		m.wCtx[i] = (rng.Float64() - 0.5) / float64(opts.Dim)
	}
	// AdaGrad accumulators start at 1 so early steps stay bounded.
	gw := ones(vocabSize * opts.Dim)
	gwCtx := ones(vocabSize * opts.Dim)
	gb := ones(vocabSize)
	gbCtx := ones(vocabSize)

	order := rng.Perm(len(pairs))
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			p := pairs[idx]
			m.step(p.I, p.J, p.X, opts, gw, gwCtx, gb, gbCtx)
			if p.I != p.J {
				m.step(p.J, p.I, p.X, opts, gw, gwCtx, gb, gbCtx)
			}
		}
	}
	return m
}

func (m *Model) step(i, j int32, x float64, opts Options, gw, gwCtx, gb, gbCtx []float64) {
	dim := m.Dim
	wi := m.w[int(i)*dim : (int(i)+1)*dim]
	wj := m.wCtx[int(j)*dim : (int(j)+1)*dim]
	dot := 0.0
	for k := range wi {
		dot += wi[k] * wj[k]
	}
	diff := dot + m.b[i] + m.bCtx[j] - math.Log(x)
	f := 1.0
	if x < opts.XMax {
		f = math.Pow(x/opts.XMax, opts.Alpha)
	}
	g := f * diff
	lr := opts.LearningRate
	for k := range wi {
		gradI := g * wj[k]
		gradJ := g * wi[k]
		idxI := int(i)*dim + k
		idxJ := int(j)*dim + k
		wi[k] -= lr * gradI / math.Sqrt(gw[idxI])
		wj[k] -= lr * gradJ / math.Sqrt(gwCtx[idxJ])
		gw[idxI] += gradI * gradI
		gwCtx[idxJ] += gradJ * gradJ
	}
	m.b[i] -= lr * g / math.Sqrt(gb[i])
	m.bCtx[j] -= lr * g / math.Sqrt(gbCtx[j])
	gb[i] += g * g
	gbCtx[j] += g * g
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
