package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
)

// featurizeJobs returns a store over the fixture bundle and n rowJobs
// for the fixture's first n base-table rows, shaped as handleFeaturize
// builds them: one-row tables in fitted column order, graph row -1.
func featurizeJobs(tb testing.TB, n int) (*store, []*rowJob) {
	tb.Helper()
	_, loaded, spec := fixture(tb)
	base := spec.DB.Table(spec.BaseTable)
	jobs := make([]*rowJob, n)
	for i := range jobs {
		t := &dataset.Table{Name: spec.BaseTable}
		for _, c := range base.Columns {
			t.Columns = append(t.Columns, &dataset.Column{Name: c.Name, Values: []dataset.Value{c.Values[i]}})
		}
		jobs[i] = &rowJob{t: t, table: spec.BaseTable, exclude: []string{spec.Target},
			graphRow: -1, mode: loaded.Config.Featurization}
	}
	return newStore(loaded, nil, Config{}.withDefaults(), newMetrics(newLimiter(1, 0, time.Second))), jobs
}

// BenchmarkServeFeaturize measures single-row featurization through the
// store — the /v1/featurize hot path minus HTTP/JSON: tokenization plus
// vector composition, which every request pays.
func BenchmarkServeFeaturize(b *testing.B) {
	st, jobs := featurizeJobs(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.compute(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// Allocation budgets of the featurize path on the fixture bundle, set at
// the measured counts: every call allocates the same, so one more
// allocation per row (or per request) fails the gate. A compute call of
// n rows costs n rows plus a fixed per-call overhead.
// testing.AllocsPerRun runs at GOMAXPROCS 1, so compute runs inline.
const (
	featurizeRowAllocBudget = 8
	computeAllocOverhead    = 5
)

func TestFeaturizeAllocBudget(t *testing.T) {
	st, jobs := featurizeJobs(t, 32)
	j := jobs[0]
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		budget float64
		fn     func() error
	}{
		{"FeaturizeRow", featurizeRowAllocBudget, func() error {
			_, err := st.res.FeaturizeRow(j.t, j.table, j.exclude, 0, j.graphRow, j.mode)
			return err
		}},
		{"compute-1", featurizeRowAllocBudget + computeAllocOverhead,
			func() error { return st.compute(ctx, jobs[:1]) }},
		{"compute-32", 32*featurizeRowAllocBudget + computeAllocOverhead,
			func() error { return st.compute(ctx, jobs) }},
	} {
		var err error
		got := testing.AllocsPerRun(50, func() {
			if e := tc.fn(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got > tc.budget {
			t.Errorf("%s: %v allocs per call, budget %v", tc.name, got, tc.budget)
		}
	}
}
