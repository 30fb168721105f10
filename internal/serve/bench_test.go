package serve

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/dataset"
)

// BenchmarkServeFeaturize measures single-row featurization latency
// through the store — the /v1/featurize hot path minus HTTP/JSON — with
// a warm cache (every lookup hits) versus a cold cache (every lookup
// misses and runs the full tokenize+embed composition). The gap is the
// capacity headroom the LRU buys for repeat-heavy traffic; see
// docs/SERVING.md for tuning notes.
func BenchmarkServeFeaturize(b *testing.B) {
	_, loaded, spec := fixture(b)
	base := spec.DB.Table(spec.BaseTable)

	job := func(rowIdx int, tag string) *rowJob {
		t := &dataset.Table{Name: spec.BaseTable}
		for _, c := range base.Columns {
			v := c.Values[rowIdx]
			if tag != "" && c.Name == "name" {
				v = dataset.String(v.Str + tag)
			}
			t.Columns = append(t.Columns, &dataset.Column{Name: c.Name, Values: []dataset.Value{v}})
		}
		j := &rowJob{t: t, table: spec.BaseTable, exclude: []string{spec.Target},
			graphRow: -1, mode: loaded.Config.Featurization}
		j.key = cacheKey(j)
		return j
	}

	b.Run("warm-cache", func(b *testing.B) {
		st := newStore(loaded, nil, Config{CacheSize: 1024}.withDefaults(), newMetrics())
		j := job(0, "")
		if _, err := st.featurizeRows(context.Background(), []*rowJob{j}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.featurizeRows(context.Background(), []*rowJob{job(0, "")}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cold-cache", func(b *testing.B) {
		st := newStore(loaded, nil, Config{CacheSize: 1024}.withDefaults(), newMetrics())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A unique name per iteration defeats the cache, so every
			// lookup pays tokenization + vector composition.
			if _, err := st.featurizeRows(context.Background(), []*rowJob{job(0, strconv.Itoa(i))}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
