package core

import (
	"testing"

	"repro/internal/durable"
	"repro/internal/embed"
	"repro/internal/synth"
)

// BenchmarkBundleLoad times loading the 150-student fixture, read onto
// the heap and (where supported) mapped: one buffer, a hash, and slice
// headers either way. Run with -benchmem; allocs/op does not depend on
// the entity count (TestBundleLoadAllocs).
func BenchmarkBundleLoad(b *testing.B) {
	load := func(opts LoadOptions) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := LoadBundleOpts(benchBundleFixture, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Unmap(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("read", load(LoadOptions{}))
	if durable.MapSupported {
		b.Run("mmap", load(LoadOptions{MMap: true}))
	}
}

// TestBundleLoadAllocs: a bundle load builds views over one buffer
// instead of per-entity strings and vectors, so LoadBundle allocates
// the same number of times for a deployment of 20 students as for one
// ten times larger.
func TestBundleLoadAllocs(t *testing.T) {
	if !durable.HostLittleEndian {
		t.Skip("zero-copy views need a little-endian host")
	}
	allocs := func(students int) (entities int, n float64) {
		spec := synth.Student(synth.StudentOptions{Students: students, Seed: 3})
		res, err := BuildEmbedding(spec.DB, Config{Dim: 4, Seed: 3, Method: embed.MethodMF})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := res.SaveBundle(dir); err != nil {
			t.Fatal(err)
		}
		return res.Embedding.Len(), testing.AllocsPerRun(5, func() {
			if _, err := LoadBundle(dir); err != nil {
				t.Fatal(err)
			}
		})
	}
	nSmall, small := allocs(20)
	nLarge, large := allocs(200)
	if nLarge < 5*nSmall {
		t.Fatalf("fixtures hold %d and %d entities; the check needs a wider spread", nSmall, nLarge)
	}
	if small != large {
		t.Fatalf("LoadBundle allocates %v times for %d entities but %v times for %d", small, nSmall, large, nLarge)
	}
	t.Logf("LoadBundle: %v allocations per call", small)
}
