// Package word2vec implements skip-gram with negative sampling (SGNS)
// over integer-token corpora. Leva's random-walk embedding method feeds
// it walk corpora (node ids); the Word2Vec comparator baseline feeds it
// row-order textified corpora. The trainer is the standard Mikolov
// recipe: unigram^0.75 negative sampling, linear learning-rate decay,
// frequent-token subsampling and lock-free parallel (Hogwild) SGD.
package word2vec

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Options configures SGNS training. Zero values take the defaults noted
// on each field.
type Options struct {
	// Dim is the embedding dimensionality. Default 100 (paper Table 2).
	Dim int
	// Window is the one-sided context window. Default 5.
	Window int
	// Negative is the number of negative samples per positive pair.
	// Default 5.
	Negative int
	// Subsample is the frequent-token subsampling threshold; the paper
	// trains with rate 1e-3. 0 means the 1e-3 default; negative
	// disables subsampling.
	Subsample float64
	// Epochs is the number of passes over the corpus. Default 5.
	Epochs int
	// LearningRate is the initial SGD step. Default 0.025.
	LearningRate float64
	// Seed seeds initialization and sampling.
	Seed int64
	// Workers caps parallelism; 0 means GOMAXPROCS.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Dim <= 0 {
		o.Dim = 100
	}
	if o.Window <= 0 {
		o.Window = 5
	}
	if o.Negative <= 0 {
		o.Negative = 5
	}
	if o.Subsample == 0 {
		o.Subsample = 1e-3
	}
	if o.Epochs <= 0 {
		o.Epochs = 5
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.025
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if raceDetectorEnabled {
		// Hogwild's lock-free shared updates are intentional races;
		// run single-worker so -race builds stay clean.
		o.Workers = 1
	}
	return o
}

// Model holds the trained input (node) and output (context) embeddings.
type Model struct {
	Dim   int
	Vocab int
	in    []float64 // Vocab x Dim node vectors
	out   []float64 // Vocab x Dim context vectors
}

// Vector returns the node embedding for token id (shared slice).
func (m *Model) Vector(id int32) []float64 {
	return m.in[int(id)*m.Dim : (int(id)+1)*m.Dim]
}

// ContextVector returns the context embedding for token id.
func (m *Model) ContextVector(id int32) []float64 {
	return m.out[int(id)*m.Dim : (int(id)+1)*m.Dim]
}

// Train fits SGNS embeddings on a corpus of token-id sequences over a
// vocabulary of the given size. Ids must lie in [0, vocabSize).
func Train(corpus [][]int32, vocabSize int, opts Options) *Model {
	opts = opts.withDefaults()
	m := &Model{Dim: opts.Dim, Vocab: vocabSize,
		in:  make([]float64, vocabSize*opts.Dim),
		out: make([]float64, vocabSize*opts.Dim)}
	if vocabSize == 0 || len(corpus) == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := range m.in {
		m.in[i] = (rng.Float64() - 0.5) / float64(opts.Dim)
	}

	counts := make([]int64, vocabSize)
	var totalTokens int64
	for _, seq := range corpus {
		for _, id := range seq {
			counts[id]++
			totalTokens++
		}
	}
	neg := newNegativeSampler(counts)

	// Subsampling keep-probability per token.
	keepProb := make([]float64, vocabSize)
	for i, c := range counts {
		if opts.Subsample < 0 || c == 0 {
			keepProb[i] = 1
			continue
		}
		f := float64(c) / float64(totalTokens)
		p := (math.Sqrt(f/opts.Subsample) + 1) * opts.Subsample / f
		if p > 1 {
			p = 1
		}
		keepProb[i] = p
	}

	totalWork := totalTokens * int64(opts.Epochs)
	var processed int64
	sig := sigmoids()

	var wg sync.WaitGroup
	chunk := (len(corpus) + opts.Workers - 1) / opts.Workers
	for w := 0; w < opts.Workers; w++ {
		lo := w * chunk
		if lo >= len(corpus) {
			break
		}
		hi := lo + chunk
		if hi > len(corpus) {
			hi = len(corpus)
		}
		wg.Add(1)
		go func(lo, hi, worker int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(opts.Seed + int64(worker)*7919 + 1))
			kept := make([]int32, 0, 128)
			for epoch := 0; epoch < opts.Epochs; epoch++ {
				for _, seq := range corpus[lo:hi] {
					kept = kept[:0]
					for _, id := range seq {
						if keepProb[id] >= 1 || wrng.Float64() < keepProb[id] {
							kept = append(kept, id)
						}
					}
					done := atomic.AddInt64(&processed, int64(len(seq)))
					lr := opts.LearningRate * (1 - float64(done)/float64(totalWork+1))
					if lr < opts.LearningRate*1e-4 {
						lr = opts.LearningRate * 1e-4
					}
					m.trainSequence(kept, lr, opts, neg, sig, wrng)
				}
			}
		}(lo, hi, w)
	}
	wg.Wait()
	return m
}

// trainSequence runs one SGD pass over one (subsampled) sequence.
// Updates intentionally race across workers (Hogwild); the sparsity of
// updates makes the interference negligible.
func (m *Model) trainSequence(seq []int32, lr float64, opts Options, neg *negativeSampler, sig *sigmoidTable, rng *rand.Rand) {
	dim := m.Dim
	grad := make([]float64, dim)
	for pos, center := range seq {
		window := 1 + rng.Intn(opts.Window)
		for off := -window; off <= window; off++ {
			if off == 0 {
				continue
			}
			cpos := pos + off
			if cpos < 0 || cpos >= len(seq) {
				continue
			}
			ctx := seq[cpos]
			vIn := m.in[int(center)*dim : (int(center)+1)*dim]
			for i := range grad {
				grad[i] = 0
			}
			// One positive plus Negative sampled targets.
			for s := 0; s <= opts.Negative; s++ {
				var target int32
				var label float64
				if s == 0 {
					target, label = ctx, 1
				} else {
					target = neg.sample(rng)
					if target == ctx {
						continue
					}
				}
				vOut := m.out[int(target)*dim : (int(target)+1)*dim]
				dot := 0.0
				for i := range vIn {
					dot += vIn[i] * vOut[i]
				}
				g := (label - sig.sigmoid(dot)) * lr
				for i := range vIn {
					grad[i] += g * vOut[i]
					vOut[i] += g * vIn[i]
				}
			}
			for i := range vIn {
				vIn[i] += grad[i]
			}
		}
	}
}

// sigmoidTable implements the standard word2vec fast path: sigmoid is
// evaluated by lookup over [-8, 8], which removes math.Exp from the
// inner training loop. The table resolution (1/512) keeps the error
// below the SGD noise floor.
type sigmoidTable [8192 + 1]float64

// sigmoids builds the table on first use, not at package init: every
// binary that links this package (the daemon included) would otherwise
// pay its 8,193 math.Exp calls at startup. Train fetches it once per
// call.
var sigmoids = sync.OnceValue(func() *sigmoidTable {
	var t sigmoidTable
	for i := range t {
		x := (float64(i)/8192)*16 - 8
		t[i] = 1 / (1 + math.Exp(-x))
	}
	return &t
})

func (t *sigmoidTable) sigmoid(x float64) float64 {
	switch {
	case x >= 8:
		return 1
	case x <= -8:
		return 0
	default:
		return t[int((x+8)/16*8192)]
	}
}

// negativeSampler draws tokens proportionally to count^0.75 via binary
// search over a cumulative table.
type negativeSampler struct {
	cum []float64
}

func newNegativeSampler(counts []int64) *negativeSampler {
	cum := make([]float64, len(counts))
	run := 0.0
	for i, c := range counts {
		run += math.Pow(float64(c), 0.75)
		cum[i] = run
	}
	return &negativeSampler{cum: cum}
}

func (n *negativeSampler) sample(rng *rand.Rand) int32 {
	total := n.cum[len(n.cum)-1]
	if total <= 0 {
		return int32(rng.Intn(len(n.cum)))
	}
	r := rng.Float64() * total
	return int32(sort.SearchFloat64s(n.cum, r))
}
