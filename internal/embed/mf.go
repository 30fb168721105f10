package embed

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// MFOptions configures the matrix-factorization embedding method
// (paper Section 4.2.1).
type MFOptions struct {
	// Dim is the embedding size. Default 100.
	Dim int
	// Tau is the negative-sampling ratio in the proximity matrix
	// M_ij = log(P_ij) - log(tau * P_D,j). Default 1.
	Tau float64
	// Window is the random-walk window the proximity matrix matches:
	// M factorizes the PMI of (P + P^2 + ... + P^Window)/Window, the
	// NetMF/NetSMF construction (paper reference [35]). Window 1 is
	// plain 1-hop PMI. Default 2: one value-node hop each way, which
	// links rows sharing a token directly while keeping the matrix
	// sharp; together with the spectral propagation step this covers
	// the multi-hop paths join information travels over. Larger
	// windows trade regression accuracy for classification accuracy
	// and are exposed for ablation.
	Window int
	// TopK prunes each row of the sparse matrix powers to its largest
	// entries so hub value nodes cannot densify the proximity matrix.
	// Default 128.
	TopK int
	// PMICap clips proximity entries from above. Rare pairs (for
	// example a row and its unique key token) carry the highest PMI
	// and can dominate the truncated factorization with
	// class-irrelevant micro-cliques; a cap redirects the dimension
	// budget toward shared structure. 0 disables capping (the
	// default; capping is exposed for ablation).
	PMICap float64
	// Oversample and PowerIters tune the randomized SVD. Defaults 8
	// and 2.
	Oversample int
	PowerIters int
	// NoSpectralPropagation disables the ProNE-style Chebyshev
	// enhancement after factorization. The enhancement is on by
	// default because the paper's evaluation uses "randomized SVD
	// methods with spectral propagation techniques enhancement from
	// [41]".
	NoSpectralPropagation bool
	// ChebOrder, ChebMu, ChebS tune the propagation filter. Defaults
	// 10, 0.2, 0.5.
	ChebOrder int
	ChebMu    float64
	ChebS     float64
	// Seed seeds the Gaussian test matrix.
	Seed int64
	// Workers caps parallelism across the proximity-matrix
	// accumulation, the randomized-SVD matmuls and the spectral
	// propagation; 0 means GOMAXPROCS. The factorization is
	// bit-identical at every worker count: all parallel kernels
	// partition output rows, and reductions keep the sequential
	// accumulation order.
	Workers int
}

func (o MFOptions) withDefaults() MFOptions {
	if o.Dim <= 0 {
		o.Dim = 100
	}
	if o.Tau <= 0 {
		o.Tau = 1
	}
	if o.Window <= 0 {
		o.Window = 2
	}
	if o.PMICap < 0 {
		o.PMICap = 0
	}
	if o.TopK <= 0 {
		o.TopK = 128
	}
	if o.Oversample <= 0 {
		o.Oversample = 8
	}
	if o.PowerIters < 0 {
		o.PowerIters = 0
	} else if o.PowerIters == 0 {
		o.PowerIters = 2
	}
	if o.ChebOrder <= 0 {
		o.ChebOrder = 10
	}
	if o.ChebMu == 0 {
		o.ChebMu = 0.2
	}
	if o.ChebS == 0 {
		o.ChebS = 0.5
	}
	return o
}

// MF embeds the graph by factorizing a shifted-PMI proximity matrix
// with the Halko randomized SVD; node embeddings are U·Σ^½ (paper
// Section 4.2.1).
//
// The proximity follows the paper's definition M_ij = log(P_ij) −
// log(τ·P_D,j) generalized to a length-Window walk context (the NetMF
// equivalence of SGNS): P is the weighted transition matrix, the first
// Window powers are averaged with per-row pruning to stay sparse, and
// entries are clipped at zero. Non-edges of the windowed graph remain
// structural zeros, which is what keeps randomized sparse factorization
// applicable — the payoff of the value-node construction.
func MF(g *graph.Graph, opts MFOptions) *Embedding {
	return NewEmbedding(mfFactorize(g, opts))
}

// mfFactorize is MF before the rounding NewEmbedding applies: the node
// names and the float64 factorization, row i the vector of names[i].
func mfFactorize(g *graph.Graph, opts MFOptions) ([]string, *matrix.Dense) {
	opts = opts.withDefaults()
	n := g.NumNodes()
	names := nodeNames(g)
	if n == 0 {
		return names, matrix.NewDense(0, opts.Dim)
	}

	// Weighted degrees and transition matrix P = D^{-1} A. The degree
	// and volume sums stay sequential (O(E), and splitting them would
	// change the floating-point accumulation order); the normalized
	// rows of P assemble in parallel.
	nodeSum := make([]float64, n)
	vol := 0.0
	for i := 0; i < n; i++ {
		for k := range g.Neighbors(int32(i)) {
			w := g.EdgeWeight(int32(i), k)
			nodeSum[i] += w
			vol += w
		}
	}
	if vol == 0 {
		return names, matrix.NewDense(n, opts.Dim)
	}
	p := transitionCSR(g, nodeSum, opts.Workers)
	e := factorizeWindow(p, nodeSum, vol, opts.Window, opts.Dim, opts)
	if !opts.NoSpectralPropagation {
		// The adjacency is built only now, so it is not live across
		// the SVD.
		e = matrix.ChebyshevPropagateWorkers(g.AdjacencyCSR(), e, opts.ChebOrder, opts.ChebMu, opts.ChebS, opts.Workers)
	}
	return names, e
}

// transitionCSR assembles the row-normalized transition matrix
// P = D^{-1} A with the rows partitioned across workers. Each row's
// entries are sorted by column (and duplicate neighbor entries summed
// in adjacency order, matrix.CSR.AppendRow), matching the canonical
// NewCSR layout.
func transitionCSR(g *graph.Graph, nodeSum []float64, workers int) *matrix.CSR {
	n := g.NumNodes()
	return matrix.ShardedCSR(n, n, workers, func(lo, hi int, frag *matrix.CSR) {
		row := make([]matrix.Entry, 0, 16)
		for i := lo; i < hi; i++ {
			if nodeSum[i] != 0 {
				inv := 1 / nodeSum[i]
				row = row[:0]
				for k, j := range g.Neighbors(int32(i)) {
					if w := g.EdgeWeight(int32(i), k); w > 0 {
						row = append(row, matrix.Entry{Col: j, Val: w * inv})
					}
				}
				frag.AppendRow(row)
			}
			frag.RowPtr[i-lo+1] = int32(len(frag.Vals))
		}
	})
}

// factorizeWindow builds the windowed shifted-PMI proximity from the
// transition matrix p and factorizes it to dim dimensions.
func factorizeWindow(p *matrix.CSR, nodeSum []float64, vol float64, window, dim int, opts MFOptions) *matrix.Dense {
	// M = shifted positive PMI of (P + P^2 + ... + P^window)/window,
	// with each power pruned per row, built in one fused row pass.
	m := matrix.WindowPMI(p, window, opts.TopK, 1e-6, nodeSum, vol, opts.Tau, opts.PMICap, opts.Workers)

	rng := rand.New(rand.NewSource(opts.Seed))
	res := matrix.RandomizedSVDWorkers(m, dim, opts.Oversample, opts.PowerIters, rng, opts.Workers)
	return padColumns(matrix.EmbeddingFromSVD(res), dim)
}

// padColumns widens e with zero columns up to dim (the randomized SVD
// may return fewer columns than requested on tiny graphs).
func padColumns(e *matrix.Dense, dim int) *matrix.Dense {
	if e.Cols >= dim {
		return e
	}
	out := matrix.NewDense(e.Rows, dim)
	for i := 0; i < e.Rows; i++ {
		copy(out.Row(i), e.Row(i))
	}
	return out
}

func nodeNames(g *graph.Graph) []string {
	names := make([]string, g.NumNodes())
	for i := range names {
		names[i] = g.NodeName(int32(i))
	}
	return names
}
