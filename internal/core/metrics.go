package core

import (
	"time"

	"repro/internal/obs"
)

// Metric family names of the offline pipeline. The full catalog —
// every family, its labels and meaning — lives in
// docs/OBSERVABILITY.md, and a test diffs that table against the
// registry so the two cannot drift.
const (
	metricBuildsTotal      = "leva_builds_total"
	metricStageDuration    = "leva_build_stage_duration_seconds"
	metricStageHeapPeak    = "leva_build_stage_heap_peak_bytes"
	metricTextifyTables    = "leva_build_textify_tables_total"
	metricCacheLookups     = "leva_build_cache_lookups_total"
	metricCacheStoreErrors = "leva_build_cache_store_errors_total"
	metricFeaturizedRows   = "leva_build_featurized_rows_total"
)

// helpStageDuration is shared between the build driver and the
// featurize path, which get-or-create the same family.
const helpStageDuration = "Wall time of each pipeline stage per build."

// buildObs holds one build's view of the pipeline instruments: the
// get-or-created families of the build's registry. A nil *buildObs (no
// registry) records nothing; the caller's Timings still see every
// stage's wall time.
type buildObs struct {
	builds    *obs.Counter
	stageDur  *obs.HistogramVec
	stageHeap *obs.GaugeVec
	tables    *obs.CounterVec
	lookups   *obs.CounterVec
	storeErrs *obs.Counter
}

func newBuildObs(r *obs.Registry) *buildObs {
	if r == nil {
		return nil
	}
	return &buildObs{
		builds: r.Counter(metricBuildsTotal,
			"Completed BuildEmbedding runs."),
		stageDur: r.HistogramVec(metricStageDuration, helpStageDuration,
			obs.StageBuckets, "stage"),
		stageHeap: r.GaugeVec(metricStageHeapPeak,
			"Heap high-water mark of each build stage above the heap at its start, in bytes, for the last build.",
			"stage"),
		tables: r.CounterVec(metricTextifyTables,
			"Tables processed by the textify stage, by outcome (reused = tokenization loaded from cache, rebuilt = re-fitted).",
			"outcome"),
		lookups: r.CounterVec(metricCacheLookups,
			"Stage-cache lookups of the graph and embed stages, by outcome.",
			"stage", "outcome"),
		storeErrs: r.Counter(metricCacheStoreErrors,
			"Failed best-effort stage-cache writes (the build itself still succeeded)."),
	}
}

// endStage reads the stage's wall time since start once and feeds it
// to the stage-duration histogram. The returned duration is that same
// reading — the single time source both Timings and the histogram see,
// so Timings.Total() and the histogram sums agree by construction.
func (b *buildObs) endStage(start time.Time, stage string) time.Duration {
	d := time.Since(start)
	if b != nil {
		b.stageDur.With(stage).ObserveDuration(d)
	}
	return d
}

// endStageHeap ends the stage's heap sampling and records its
// high-water mark in the stage's heap-peak gauge. The returned peak is
// that same reading, so Timings and the gauge agree.
func (b *buildObs) endStageHeap(h *heapSampler, stage string) uint64 {
	peak := h.end()
	if b != nil {
		b.stageHeap.With(stage).Set(float64(peak))
	}
	return peak
}

// countTables accrues the textify stage's per-table outcomes.
func (b *buildObs) countTables(reused, rebuilt int) {
	if b == nil {
		return
	}
	b.tables.With("reused").Add(float64(reused))
	b.tables.With("rebuilt").Add(float64(rebuilt))
}

// countLookup accrues one graph/embed stage-cache lookup.
func (b *buildObs) countLookup(stage string, hit bool) {
	if b == nil {
		return
	}
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	b.lookups.With(stage, outcome).Inc()
}

// done marks one completed build.
func (b *buildObs) done() {
	if b == nil {
		return
	}
	b.builds.Inc()
}

// observeFeaturize records one batch featurization against r: the
// wall time joins the stage-duration histogram under stage="featurize"
// (the same family the build driver feeds), and the row count accrues.
// No-op without a registry.
func observeFeaturize(r *obs.Registry, d time.Duration, rows int) {
	if r == nil {
		return
	}
	r.HistogramVec(metricStageDuration, helpStageDuration,
		obs.StageBuckets, "stage").With("featurize").ObserveDuration(d)
	r.Counter(metricFeaturizedRows,
		"Rows featurized by batch deployment (Featurize/FeaturizeWithMode); the online serving path reports through leva_rows_featurized_total instead.").
		Add(float64(rows))
}
