package word2vec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// clusterCorpus builds sentences where tokens 0-4 co-occur and tokens
// 5-9 co-occur, never mixing.
func clusterCorpus(sentences, length int, seed int64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	var corpus [][]int32
	for s := 0; s < sentences; s++ {
		base := int32(0)
		if s%2 == 1 {
			base = 5
		}
		seq := make([]int32, length)
		for i := range seq {
			seq[i] = base + int32(rng.Intn(5))
		}
		corpus = append(corpus, seq)
	}
	return corpus
}

func TestSGNSLearnsCooccurrence(t *testing.T) {
	corpus := clusterCorpus(400, 20, 1)
	m := Train(corpus, 10, Options{Dim: 16, Epochs: 3, Seed: 2, Workers: 1})

	intra, inter := 0.0, 0.0
	nIntra, nInter := 0, 0
	for a := int32(0); a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			sim := matrix.CosineSimilarity(m.Vector(a), m.Vector(b))
			if (a < 5) == (b < 5) {
				intra += sim
				nIntra++
			} else {
				inter += sim
				nInter++
			}
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if intra <= inter+0.2 {
		t.Errorf("intra-cluster similarity %.3f not above inter %.3f", intra, inter)
	}
}

func TestTrainDeterministicSingleWorker(t *testing.T) {
	corpus := clusterCorpus(50, 10, 3)
	a := Train(corpus, 10, Options{Dim: 8, Epochs: 2, Seed: 7, Workers: 1})
	b := Train(corpus, 10, Options{Dim: 8, Epochs: 2, Seed: 7, Workers: 1})
	for id := int32(0); id < 10; id++ {
		va, vb := a.Vector(id), b.Vector(id)
		for k := range va {
			if va[k] != vb[k] {
				t.Fatalf("nondeterministic at token %d dim %d", id, k)
			}
		}
	}
}

func TestTrainEmptyAndDegenerate(t *testing.T) {
	m := Train(nil, 0, Options{})
	if m.Vocab != 0 {
		t.Error("empty corpus produced vocab")
	}
	// Single-token corpus must not panic.
	m = Train([][]int32{{0, 0, 0}}, 1, Options{Dim: 4, Epochs: 1, Workers: 1})
	if len(m.Vector(0)) != 4 {
		t.Error("vector length wrong")
	}
}

func TestContextVectorsDiffer(t *testing.T) {
	corpus := clusterCorpus(100, 10, 4)
	m := Train(corpus, 10, Options{Dim: 8, Epochs: 2, Seed: 5, Workers: 1})
	same := true
	in, out := m.Vector(0), m.ContextVector(0)
	for k := range in {
		if in[k] != out[k] {
			same = false
		}
	}
	if same {
		t.Error("input and context vectors identical")
	}
}

func TestNegativeSamplerDistribution(t *testing.T) {
	counts := []int64{1000, 100, 10, 0}
	ns := newNegativeSampler(counts)
	rng := rand.New(rand.NewSource(6))
	freq := make([]int, len(counts))
	const draws = 100000
	for i := 0; i < draws; i++ {
		freq[ns.sample(rng)]++
	}
	// Unigram^0.75: token 0 should dominate, token 3 (count 0) never.
	if freq[3] != 0 {
		t.Errorf("zero-count token sampled %d times", freq[3])
	}
	if freq[0] <= freq[1] || freq[1] <= freq[2] {
		t.Errorf("sampling not monotone in count: %v", freq)
	}
	// Ratio token0/token1 should be near (1000/100)^0.75 ≈ 5.6.
	ratio := float64(freq[0]) / float64(freq[1])
	if ratio < 4 || ratio > 8 {
		t.Errorf("unigram^0.75 ratio = %v, want ~5.6", ratio)
	}
}

func TestSigmoidBounds(t *testing.T) {
	sigmoid := sigmoids().sigmoid
	if sigmoid(100) != 1 || sigmoid(-100) != 0 {
		t.Error("sigmoid saturation wrong")
	}
	if s := sigmoid(0); s != 0.5 {
		t.Errorf("sigmoid(0) = %v", s)
	}
	// Table lookup stays close to the exact function.
	for _, x := range []float64{-7.9, -3.3, -0.5, 0.25, 2.8, 7.9} {
		exact := 1 / (1 + mathExp(-x))
		if d := sigmoid(x) - exact; d > 2e-3 || d < -2e-3 {
			t.Errorf("sigmoid(%v) error %v", x, d)
		}
	}
}

func mathExp(x float64) float64 {
	// local alias keeps the test honest about what it compares to
	return math.Exp(x)
}
