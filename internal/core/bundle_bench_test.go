package core

import (
	"os"
	"sync"
	"testing"

	"repro/internal/durable"
)

// benchBundle saves the 150-student legacy fixture's deployment in the
// binary layout once per benchmark binary.
var (
	benchBundleOnce sync.Once
	benchBundleV4   string
	benchBundleErr  error
)

func benchBundleDirs(b *testing.B) (v4, v3 string) {
	b.Helper()
	benchBundleOnce.Do(func() {
		res, err := LoadBundle(legacyFixtureDim16)
		if err != nil {
			benchBundleErr = err
			return
		}
		if benchBundleV4, benchBundleErr = os.MkdirTemp("", "leva-bench-v4-*"); benchBundleErr != nil {
			return
		}
		benchBundleErr = res.SaveBundle(benchBundleV4)
	})
	if benchBundleErr != nil {
		b.Fatal(benchBundleErr)
	}
	return benchBundleV4, legacyFixtureDim16
}

// BenchmarkBundleLoad compares the two load paths over the same
// deployment: the legacy JSON/TSV decode (per-entity string and vector
// allocations) against the binary view construction (one buffer, a
// hash, and slice headers). Run with -benchmem; the allocs/op column is
// the point of the format migration.
func BenchmarkBundleLoad(b *testing.B) {
	v4, v3 := benchBundleDirs(b)
	b.Run("v3-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadBundle(v3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v4-binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadBundle(v4); err != nil {
				b.Fatal(err)
			}
		}
	})
	if durable.MapSupported {
		b.Run("v4-mmap", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := LoadBundleOpts(v4, LoadOptions{MMap: true})
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Unmap(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBundleLoadAllocRatio turns the benchmark's headline into a
// regression gate: loading the binary format must allocate at least 10x
// fewer objects than loading the same deployment from the legacy JSON
// format.
func TestBundleLoadAllocRatio(t *testing.T) {
	v3Dir, v4Dir := legacyFixtureDim16, t.TempDir()
	res, err := LoadBundle(v3Dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SaveBundle(v4Dir); err != nil {
		t.Fatal(err)
	}
	legacy := testing.AllocsPerRun(5, func() {
		if _, err := LoadBundle(v3Dir); err != nil {
			t.Fatal(err)
		}
	})
	binary := testing.AllocsPerRun(5, func() {
		if _, err := LoadBundle(v4Dir); err != nil {
			t.Fatal(err)
		}
	})
	if binary*10 > legacy {
		t.Errorf("binary load allocates %.0f objects vs %.0f for legacy — want at least 10x fewer", binary, legacy)
	}
}
