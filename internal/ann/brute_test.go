package ann_test

import (
	"errors"
	"testing"

	"repro/internal/ann"
)

// TestBruteForceMatchesOracle pins the exact scan to the same
// exact-cosine oracle the recall test uses: BruteForceName must return
// the oracle's top-k verbatim (it IS exact), in the same order.
func TestBruteForceMatchesOracle(t *testing.T) {
	e := benchmarkEmbedding(t)
	ix, err := ann.Build(e, ann.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	for qi := 0; qi < e.Len(); qi += 13 {
		want := exactTopK(e, qi, k)
		got, err := ix.BruteForceName(e.Names()[qi], k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d hits, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i] {
				t.Fatalf("query %d hit %d: got %q, want %q", qi, i, got[i].Name, want[i])
			}
		}
	}
}

func TestBruteForceVector(t *testing.T) {
	names, vecs := randomVectors(64, 8, 5)
	ix, err := ann.BuildVectors(names, vecs, ann.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.BruteForceVector(vecs[3], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d hits, want 5", len(got))
	}
	// Querying with a stored vector: that vector is its own best match
	// (score ~1 under cosine), and scores are non-increasing.
	if got[0].Name != names[3] {
		t.Fatalf("best hit = %q, want %q", got[0].Name, names[3])
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("scores not non-increasing at %d: %v then %v", i, got[i-1].Score, got[i].Score)
		}
	}

	if _, err := ix.BruteForceVector(vecs[0][:4], 5); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := ix.BruteForceVector(vecs[0], 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestBruteForceNameSemantics(t *testing.T) {
	names, vecs := randomVectors(32, 8, 9)
	ix, err := ann.BuildVectors(names, vecs, ann.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.BruteForceName(names[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.Name == names[0] {
			t.Fatal("self returned as its own neighbor")
		}
	}
	// k beyond the collection clamps to n-1.
	all, err := ix.BruteForceName(names[0], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(names)-1 {
		t.Fatalf("k=1000 returned %d hits, want %d", len(all), len(names)-1)
	}
	if _, err := ix.BruteForceName("nope", 5); !errors.Is(err, ann.ErrUnknownName) {
		t.Fatalf("unknown name err = %v, want ErrUnknownName", err)
	}
	if _, err := ix.BruteForceName(names[0], 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}
