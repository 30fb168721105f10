package ann_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/synth"
)

// benchmarkEmbedding builds the synthetic benchmark embedding once per
// test binary: the student dataset through the real MF pipeline, so
// recall is measured on the vector geometry the paper's pipeline
// actually produces, not on an artificial Gaussian cloud.
var (
	benchOnce sync.Once
	benchEmb  *embed.Embedding
	benchErr  error
)

func benchmarkEmbedding(t testing.TB) *embed.Embedding {
	t.Helper()
	benchOnce.Do(func() {
		spec := synth.Student(synth.StudentOptions{Students: 150, Seed: 7})
		res, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 16, Seed: 7, Method: embed.MethodMF})
		if err != nil {
			benchErr = err
			return
		}
		benchEmb = res.Embedding
	})
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	return benchEmb
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// exactTopK is the brute-force oracle: the k most cosine-similar
// entities to entity qi, self excluded, ties by ascending id — the
// same ordering the index promises.
func exactTopK(e *embed.Embedding, qi, k int) []string {
	q := e.Matrix().Row(qi)
	type hit struct {
		id    int
		score float64
	}
	hits := make([]hit, 0, e.Len()-1)
	for i := 0; i < e.Len(); i++ {
		if i == qi {
			continue
		}
		hits = append(hits, hit{i, cosine(q, e.Matrix().Row(i))})
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].score != hits[b].score {
			return hits[a].score > hits[b].score
		}
		return hits[a].id < hits[b].id
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = e.Names()[h.id]
	}
	return out
}

// TestRecallAtTenVsBruteForce is the headline acceptance test: at the
// default efSearch, mean recall@10 against the exact brute-force
// cosine oracle must be at least 0.95 on the synthetic benchmark
// embedding.
func TestRecallAtTenVsBruteForce(t *testing.T) {
	e := benchmarkEmbedding(t)
	if e.Len() < 200 {
		t.Fatalf("benchmark embedding implausibly small: %d entities", e.Len())
	}
	ix, err := ann.Build(e, ann.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	queries, recallSum := 0, 0.0
	for qi := 0; qi < e.Len(); qi += 7 {
		want := exactTopK(e, qi, k)
		got, err := ix.SearchName(e.Names()[qi], k, 0) // ef=0: default efSearch
		if err != nil {
			t.Fatal(err)
		}
		wantSet := make(map[string]bool, len(want))
		for _, n := range want {
			wantSet[n] = true
		}
		overlap := 0
		for _, r := range got {
			if wantSet[r.Name] {
				overlap++
			}
		}
		recallSum += float64(overlap) / float64(len(want))
		queries++
	}
	recall := recallSum / float64(queries)
	t.Logf("recall@%d over %d queries on %d entities: %.4f", k, queries, e.Len(), recall)
	if recall < 0.95 {
		t.Fatalf("recall@%d = %.4f, want >= 0.95", k, recall)
	}
}

func randomVectors(n, dim int, seed int64) (names []string, vecs [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	names = make([]string, n)
	vecs = make([][]float64, n)
	for i := range vecs {
		names[i] = fmt.Sprintf("v%04d", i)
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	return names, vecs
}

// TestBuildByteIdentical pins the determinism contract: two builds of
// the same input encode to byte-identical artifacts, and a decoded
// index re-encodes to the same bytes.
func TestBuildByteIdentical(t *testing.T) {
	names, vecs := randomVectors(400, 12, 42)
	opts := ann.Options{M: 8, EfConstruction: 60, Seed: 9}
	a, err := ann.BuildVectors(names, vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ann.BuildVectors(names, vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Encode(), b.Encode()
	if !bytes.Equal(ea, eb) {
		t.Fatal("two builds of identical input produced different bytes")
	}
	dec, err := ann.Decode(ea)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), ea) {
		t.Fatal("decode/encode round trip is not byte-identical")
	}
}

// TestBuildArenaMatchesBuildVectors pins the zero-copy Build fast path
// (interned symbol table + shared arena) to the copying BuildVectors
// path: for the same embedding and options the two must produce
// byte-identical Encode output under both metrics — the fast path may
// not change a single bit of the graph.
func TestBuildArenaMatchesBuildVectors(t *testing.T) {
	e := benchmarkEmbedding(t)
	rows := make([][]float64, e.Len())
	for i := range rows {
		rows[i] = append([]float64(nil), e.Matrix().Row(i)...)
	}
	for _, metric := range []ann.Metric{ann.MetricCosine, ann.MetricDot} {
		opts := ann.Options{M: 8, EfConstruction: 60, Seed: 9, Metric: metric}
		fast, err := ann.Build(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := ann.BuildVectors(e.Names(), rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		enc := fast.Encode()
		if !bytes.Equal(enc, slow.Encode()) {
			t.Fatalf("%s: arena build and copying build produced different indexes", metric)
		}
		dec, err := ann.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("%s: Encode(Decode(Encode(Build))) is not byte-exact", metric)
		}
		// The arena path must leave the embedding's vectors untouched
		// (cosine normalization must copy, dot must not write at all).
		for i := range rows {
			row := e.Matrix().Row(i)
			for j := range row {
				if row[j] != rows[i][j] {
					t.Fatalf("%s: Build mutated the embedding arena at [%d][%d]", metric, i, j)
				}
			}
		}
	}
}

// TestConcurrentSearchIsDeterministic hammers one index from many
// goroutines (run under -race by scripts/check.sh) and requires every
// answer to equal the single-threaded reference. The searches share the
// index's pooled visited sets; the decoded, quantized copy covers the
// int8 traversal over a view of the encoded bytes as well.
func TestConcurrentSearchIsDeterministic(t *testing.T) {
	names, vecs := randomVectors(600, 10, 5)
	built, err := ann.BuildVectors(names, vecs, ann.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ann.Decode(built.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Quantize(nil); err != nil {
		t.Fatal(err)
	}
	const queries = 64
	qs := make([][]float64, queries)
	rng := rand.New(rand.NewSource(11))
	for i := range qs {
		q := make([]float64, 10)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		qs[i] = q
	}
	for _, ix := range []*ann.Index{built, decoded} {
		want := make([][]ann.Result, queries)
		for i, q := range qs {
			want[i], err = ix.SearchVector(q, 5, 32)
			if err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errc := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range qs {
					got, err := ix.SearchVector(q, 5, 32)
					if err != nil {
						errc <- err
						return
					}
					for j := range got {
						if got[j] != want[i][j] {
							errc <- fmt.Errorf("quantized=%v query %d result %d: got %+v, want %+v",
								ix.Quantized(), i, j, got[j], want[i][j])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
	}
}

func TestSearchNameSemantics(t *testing.T) {
	names, vecs := randomVectors(100, 6, 2)
	ix, err := ann.BuildVectors(names, vecs, ann.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.SearchName("v0007", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
	for i, r := range res {
		if r.Name == "v0007" {
			t.Error("SearchName returned the query entity itself")
		}
		if i > 0 && res[i-1].Score < r.Score {
			t.Errorf("results out of order: %v before %v", res[i-1], res[i])
		}
	}
	if _, err := ix.SearchName("no-such-entity", 5, 0); !errors.Is(err, ann.ErrUnknownName) {
		t.Fatalf("unknown name: got %v, want ErrUnknownName", err)
	}
}

func TestSearchVectorValidation(t *testing.T) {
	names, vecs := randomVectors(20, 4, 1)
	ix, err := ann.BuildVectors(names, vecs, ann.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SearchVector([]float64{1, 2}, 3, 0); err == nil {
		t.Fatal("dim-mismatched query accepted")
	}
	if _, err := ix.SearchVector(make([]float64, 4), 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := ann.BuildVectors(nil, nil, ann.Options{}); err == nil {
		t.Fatal("empty build accepted")
	}
	if _, err := ann.BuildVectors([]string{"a", "a"}, [][]float64{{1}, {2}}, ann.Options{}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := ann.BuildVectors([]string{"a", "b"}, [][]float64{{1}, {2, 3}}, ann.Options{}); err == nil {
		t.Fatal("ragged vectors accepted")
	}
	if _, err := ann.BuildVectors([]string{"a"}, [][]float64{{1}}, ann.Options{Metric: "euclid"}); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

// TestDotMetricOrdersByInnerProduct: under MetricDot longer vectors in
// the query direction must outrank unit ones, which cosine would tie.
func TestDotMetricOrdersByInnerProduct(t *testing.T) {
	names := []string{"long", "short", "orthogonal"}
	vecs := [][]float64{{2, 0}, {1, 0}, {0, 1}}
	ix, err := ann.BuildVectors(names, vecs, ann.Options{Metric: ann.MetricDot})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.SearchVector([]float64{1, 0}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Name != "long" || res[0].Score != 2 {
		t.Fatalf("dot metric top hit = %+v, want long/2", res[0])
	}
	if res[1].Name != "short" || res[1].Score != 1 {
		t.Fatalf("dot metric second hit = %+v, want short/1", res[1])
	}
}
