package word2vec

import (
	"math"
	"sync"
	"testing"
)

// TestSigmoidTableConcurrentFirstUse builds the sigmoid table from
// several goroutines at once; under -race it checks that first use is
// synchronized. This file sorts before the package's other test files,
// so unless tests are shuffled this test runs first and the table is
// built here. Every caller must get the same table, equal to the
// expression it replaces.
func TestSigmoidTableConcurrentFirstUse(t *testing.T) {
	const goroutines = 8
	got := make([]*sigmoidTable, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = sigmoids()
			// A whole Train call reads the table too.
			Train([][]int32{{0, 1, 2, 1, 0}}, 3, Options{Dim: 4, Epochs: 1, Workers: 1, Seed: int64(g)})
		}()
	}
	wg.Wait()
	for g, tab := range got {
		if tab != got[0] {
			t.Fatalf("goroutine %d got a different table", g)
		}
	}
	for i, v := range got[0] {
		x := (float64(i)/8192)*16 - 8
		if want := 1 / (1 + math.Exp(-x)); v != want {
			t.Fatalf("table[%d] = %v, want %v", i, v, want)
		}
	}
}
