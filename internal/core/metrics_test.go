package core

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/obs"
	"repro/internal/synth"
)

func buildInstrumented(t *testing.T, cacheDir string, reg *obs.Registry) *Result {
	t.Helper()
	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 7})
	res, err := BuildEmbedding(spec.DB, Config{
		Dim:      8,
		Method:   embed.MethodMF,
		Seed:     7,
		Workers:  1,
		CacheDir: cacheDir,
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildMetricsAccrue(t *testing.T) {
	r := obs.NewRegistry()
	dir := t.TempDir()
	res := buildInstrumented(t, dir, r)

	if got := r.Counter(metricBuildsTotal, "").Value(); got != 1 {
		t.Errorf("builds_total = %v, want 1", got)
	}
	stageDur := r.HistogramVec(metricStageDuration, "", obs.StageBuckets, "stage")
	for _, stage := range []string{"textify", "graph", "embed"} {
		if got := stageDur.With(stage).Count(); got != 1 {
			t.Errorf("stage %q duration observations = %d, want 1", stage, got)
		}
	}

	// The single-time-source property: the histogram sum and the
	// Timings field come from one clock reading per stage, so they are
	// equal not approximately but exactly.
	if got, want := stageDur.With("textify").Sum(), res.Timings.Textify.Seconds(); got != want {
		t.Errorf("textify histogram sum %v != Timings.Textify %v", got, want)
	}
	if got, want := stageDur.With("graph").Sum(), res.Timings.GraphBuild.Seconds(); got != want {
		t.Errorf("graph histogram sum %v != Timings.GraphBuild %v", got, want)
	}
	if got, want := stageDur.With("embed").Sum(), res.Timings.Embed.Seconds(); got != want {
		t.Errorf("embed histogram sum %v != Timings.Embed %v", got, want)
	}

	// The heap-peak gauge carries the same reading as Timings.
	stageHeap := r.GaugeVec(metricStageHeapPeak, "", "stage")
	for stage, want := range map[string]uint64{
		"textify": res.Timings.TextifyHeapPeak,
		"graph":   res.Timings.GraphHeapPeak,
		"embed":   res.Timings.EmbedHeapPeak,
	} {
		if got := stageHeap.With(stage).Value(); got != float64(want) {
			t.Errorf("stage %q heap-peak gauge %v != Timings %d", stage, got, want)
		}
	}

	// Cold build with a cache: graph and embed lookups both missed.
	lookups := r.CounterVec(metricCacheLookups, "", "stage", "outcome")
	if got := lookups.With(stageGraph, "miss").Value(); got != 1 {
		t.Errorf("graph miss = %v, want 1", got)
	}
	if got := lookups.With(stageEmbed, "miss").Value(); got != 1 {
		t.Errorf("embed miss = %v, want 1", got)
	}
	tables := r.CounterVec(metricTextifyTables, "", "outcome")
	if tables.With("rebuilt").Value() == 0 {
		t.Error("no rebuilt tables counted on a cold build")
	}

	// Warm build into the same registry: hits accrue, builds_total = 2.
	warm := buildInstrumented(t, dir, r)
	if warm.Timings.Cache.Embed != StageCached {
		t.Fatalf("warm build not cached: %+v", warm.Timings.Cache)
	}
	if got := lookups.With(stageEmbed, "hit").Value(); got != 1 {
		t.Errorf("embed hit = %v, want 1", got)
	}
	if got := r.Counter(metricBuildsTotal, "").Value(); got != 2 {
		t.Errorf("builds_total after warm build = %v, want 2", got)
	}
}

func TestFeaturizeFeedsRegistry(t *testing.T) {
	r := obs.NewRegistry()
	res := buildInstrumented(t, "", r)
	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 7})
	base := spec.DB.Table(spec.BaseTable)
	feats, err := res.Featurize(base, spec.BaseTable, []string{spec.Target}, func(i int) int { return i })
	if err != nil {
		t.Fatal(err)
	}
	stageDur := r.HistogramVec(metricStageDuration, "", obs.StageBuckets, "stage")
	if got := stageDur.With("featurize").Count(); got != 1 {
		t.Errorf("featurize observations = %d, want 1", got)
	}
	if got, want := stageDur.With("featurize").Sum(), res.Timings.Featurize.Seconds(); got != want {
		t.Errorf("featurize histogram sum %v != Timings.Featurize %v", got, want)
	}
	rows := r.Counter(metricFeaturizedRows, "")
	if got := rows.Value(); got != float64(len(feats)) {
		t.Errorf("featurized rows = %v, want %d", got, len(feats))
	}
}

func TestBuildWithoutScopeStillTimes(t *testing.T) {
	res := buildInstrumented(t, "", nil)
	if res.Timings.Total() <= 0 {
		t.Error("nil-registry build recorded no timings")
	}
}
