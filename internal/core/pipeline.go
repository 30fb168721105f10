// Package core wires Leva's stages into the end-to-end pipeline of
// paper Fig. 2: textification, graph construction and refinement,
// embedding construction (with the memory-based MF/RW auto-selection),
// and embedding deployment, with per-stage timings for the performance
// profile experiments.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/textify"
)

// FeaturizationMode selects how base-table rows are featurized from the
// embedding (paper Section 4.4).
type FeaturizationMode uint8

const (
	// RowPlusValue concatenates the row-node embedding with the mean
	// of the row's value-node embeddings; the paper's default.
	RowPlusValue FeaturizationMode = iota
	// RowOnly uses the row-node embedding alone.
	RowOnly
)

func (m FeaturizationMode) String() string {
	if m == RowOnly {
		return "row"
	}
	return "row+value"
}

// Config collects the user-tunable parameters of Table 2.
type Config struct {
	// Textify configures binning and column typing.
	Textify textify.Options
	// Graph configures construction and refinement (theta_range,
	// theta_min, weighting).
	Graph graph.Options
	// Method picks the embedding algorithm; MethodAuto applies the
	// paper's memory rule.
	Method embed.Method
	// Dim is the embedding size. Default 100.
	Dim int
	// MemoryBudgetBytes bounds MF's estimated working set under
	// MethodAuto; <= 0 means unlimited.
	MemoryBudgetBytes int64
	// MF and RW tune the two first-party methods. Dim and Seed fields
	// inside them are overridden by the top-level values.
	MF embed.MFOptions
	RW embed.RWOptions
	// GloVe tunes the optional GloVe plug-in method (never
	// auto-selected).
	GloVe embed.GloVeOptions
	// Featurization selects Row or Row+Value deployment.
	Featurization FeaturizationMode
	// UnseenFallbackDims, when positive, appends that many feature
	// slots into which tokens absent from the embedding are hashed
	// one-hot — the paper's "replaced with one hot encoding" handling
	// for unseen test-time data. Numeric values rarely need it (they
	// quantize through the fitted histograms into seen bin tokens);
	// it matters for novel categorical strings. 0 disables.
	UnseenFallbackDims int
	// Seed drives all randomized stages.
	Seed int64
	// CacheDir, when non-empty, enables the content-addressed stage
	// cache rooted there (conventionally ".leva-cache"): each stage's
	// artifact is persisted under its fingerprint, and rebuilds load
	// matching artifacts instead of recomputing. Cached builds are
	// bit-identical to from-scratch builds wherever the stage itself is
	// deterministic (see Workers). Cache write failures never fail a
	// build; they are counted in Timings.Cache.StoreErrors.
	CacheDir string
	// Obs, when non-nil, is the registry the pipeline's metric families
	// (leva_builds_total, leva_build_stage_duration_seconds, cache
	// counters — see docs/OBSERVABILITY.md) accrue into. Nil disables
	// instrumentation entirely; timings in Result.Timings are recorded
	// either way, from the same clock readings the histograms see.
	// Never serialized (bundles, fingerprints).
	Obs *obs.Registry `json:"-"`
	// Workers caps the parallelism of every pipeline hot path:
	// textification, graph construction, the MF matmuls, RW walk
	// generation and SGNS training, and featurization. 0 means
	// GOMAXPROCS; 1 reproduces the sequential pipeline exactly. The
	// textify, graph and MF stages are bit-identical at every worker
	// count; RW training (Hogwild SGD) is reproducible only at
	// Workers=1 and statistically equivalent otherwise. Stage-level
	// knobs (Graph.Workers, MF.Workers, RW.Workers, GloVe.Workers)
	// override this when set.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 100
	}
	if c.Method == "" {
		c.Method = embed.MethodAuto
	}
	// Thread the pipeline-wide worker count into every stage knob that
	// was not set explicitly.
	if c.Graph.Workers == 0 {
		c.Graph.Workers = c.Workers
	}
	if c.MF.Workers == 0 {
		c.MF.Workers = c.Workers
	}
	if c.RW.Workers == 0 {
		c.RW.Workers = c.Workers
	}
	if c.GloVe.Workers == 0 {
		c.GloVe.Workers = c.Workers
	}
	return c
}

// StageOutcome describes how a pipeline stage was satisfied on one
// build.
type StageOutcome string

const (
	// StageRebuilt means the stage recomputed its output from scratch.
	StageRebuilt StageOutcome = "rebuilt"
	// StagePartial means the stage reused some cached work and
	// recomputed the rest (textify with a subset of changed tables).
	StagePartial StageOutcome = "partial"
	// StageCached means the stage's entire output was loaded from the
	// cache.
	StageCached StageOutcome = "cached"
)

// CacheStats reports per-stage cache behaviour of one build.
type CacheStats struct {
	// Enabled records whether a cache was attached (Config.CacheDir).
	// Without one, every outcome below is StageRebuilt.
	Enabled bool `json:"enabled"`
	// Textify, Graph and Embed are the per-stage outcomes.
	Textify StageOutcome `json:"textify,omitempty"`
	Graph   StageOutcome `json:"graph,omitempty"`
	Embed   StageOutcome `json:"embed,omitempty"`
	// TablesReused/TablesRebuilt split the textify stage's per-table
	// granularity: reused tables loaded their tokenization from cache.
	TablesReused  int `json:"tablesReused,omitempty"`
	TablesRebuilt int `json:"tablesRebuilt,omitempty"`
	// StoreErrors counts failed best-effort cache writes (full disk,
	// permissions). The build itself still succeeded.
	StoreErrors int `json:"storeErrors,omitempty"`
}

// Timings records wall-clock per pipeline stage (Fig. 6b/6c), each
// build stage's heap high-water mark, and how the stage cache behaved.
// None of it is written to a bundle.
type Timings struct {
	Textify    time.Duration
	GraphBuild time.Duration
	Embed      time.Duration
	// TextifyHeapPeak, GraphHeapPeak and EmbedHeapPeak are each build
	// stage's heap high-water mark above the heap at its start, in
	// bytes: the most heap-object memory (live, or dead and not yet
	// swept) the stage added at any point while it ran.
	TextifyHeapPeak uint64
	GraphHeapPeak   uint64
	EmbedHeapPeak   uint64
	// Featurize accumulates deployment time across every Featurize /
	// FeaturizeWithMode call on the Result, completing the end-to-end
	// profile of Fig. 6 (FeaturizeRow, the online serving path, is
	// intentionally not instrumented).
	Featurize time.Duration
	// Cache reports how each stage was satisfied on this build.
	Cache CacheStats
}

// Total returns the summed stage time, including deployment
// (featurization) time accrued so far.
func (t Timings) Total() time.Duration {
	return t.Textify + t.GraphBuild + t.Embed + t.Featurize
}

// Result is a built relational embedding plus everything needed to
// deploy it.
type Result struct {
	Embedding  *embed.Embedding
	Graph      *graph.Graph
	GraphStats graph.Stats
	Textifier  *textify.Model
	MethodUsed embed.Method
	// UnweightedFallback records that the weighted graph's estimated
	// alias-table memory exceeded MemoryBudgetBytes, so the build fell
	// back to the unweighted graph (paper Section 3.2).
	UnweightedFallback bool
	Timings            Timings
	Config             Config
	// BundleFormat is the on-disk format version this Result was loaded
	// from (0 for Results built in-process rather than loaded).
	BundleFormat int

	// mapped is the whole-file mmap behind this Result's views when it
	// was loaded with LoadOptions.MMap; nil otherwise. Owned by Unmap.
	mapped []byte
	// unmapOnce makes Unmap idempotent.
	unmapOnce sync.Once

	// mu protects Timings.Featurize accrual from concurrent
	// FeaturizeWithMode calls.
	mu sync.Mutex
}

// Mapped reports whether this Result's symbol and vector views point
// into a live file mapping (see LoadOptions.MMap) — in which case the
// holder must call Unmap once nothing can touch them again.
func (r *Result) Mapped() bool { return r.mapped != nil }

// Unmap releases the file mapping behind a Result loaded with
// LoadOptions.MMap. Every view into the Result — embedding vectors,
// symbol strings — is invalid afterward, so this
// must be the very last call; serving ties it to the bundle
// generation's refcount draining. Unmap is idempotent and a no-op for
// Results that were read rather than mapped.
func (r *Result) Unmap() error {
	var err error
	r.unmapOnce.Do(func() {
		if r.mapped != nil {
			err = durable.Unmap(r.mapped)
		}
	})
	return err
}

// BuildEmbedding runs textification, graph construction/refinement and
// embedding construction over the database, as a driver over the
// TextifyStage → GraphStage → EmbedStage DAG (see stages.go). With
// Config.CacheDir set, stages whose fingerprints match sealed cache
// entries load their artifacts instead of recomputing; the result is
// bit-identical either way wherever the stage is deterministic. The
// caller is responsible for excluding test rows and the target column
// beforehand (paper Section 2.4: test data is not part of Leva's
// input).
func BuildEmbedding(db *dataset.Database, cfg Config) (*Result, error) {
	var cache *Cache
	if cfg.CacheDir != "" {
		cache = NewCache(cfg.CacheDir)
	}
	return buildWithCache(db, cfg, cache)
}

// buildWithCache is BuildEmbedding with an explicit (possibly nil)
// cache — the seam fault-injection tests use to run builds against a
// crashing cache filesystem.
func buildWithCache(db *dataset.Database, cfg Config, cache *Cache) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := db.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid database: %w", err)
	}
	bo := newBuildObs(cfg.Obs)
	if cache != nil {
		cache.observeInto(bo)
	}
	res := &Result{Config: cfg}
	res.Timings.Cache.Enabled = cache != nil
	heap := startHeapSampler()
	defer heap.stop()

	start := time.Now()
	heap.begin()
	ts := &TextifyStage{DB: db, Opts: cfg.Textify, Workers: cfg.Workers, Cache: cache}
	model, tokenized, reused, rebuilt, err := ts.Run()
	if err != nil {
		return nil, fmt.Errorf("core: textify: %w", err)
	}
	res.Textifier = model
	res.Timings.Cache.Textify = tableOutcome(reused, rebuilt)
	res.Timings.Textify = bo.endStage(start, "textify")
	res.Timings.TextifyHeapPeak = bo.endStageHeap(heap, "textify")
	res.Timings.Cache.TablesReused = reused
	res.Timings.Cache.TablesRebuilt = rebuilt
	bo.countTables(reused, rebuilt)

	start = time.Now()
	heap.begin()
	gs := &GraphStage{
		Tokenized:         tokenized,
		Opts:              cfg.Graph,
		Method:            cfg.Method,
		Dim:               cfg.Dim,
		MemoryBudgetBytes: cfg.MemoryBudgetBytes,
		WalkLength:        cfg.RW.WalkLength,
		WalksPerNode:      cfg.RW.WalksPerNode,
		Cache:             cache,
	}
	if cache != nil {
		gs.InputFP = ts.Fingerprint()
	}
	g, stats, fellBack, graphCached, err := gs.Run()
	if err != nil {
		return nil, fmt.Errorf("core: graph: %w", err)
	}
	res.Graph = g
	res.GraphStats = stats
	res.UnweightedFallback = fellBack
	res.Timings.Cache.Graph = hitOutcome(graphCached)
	res.Timings.GraphBuild = bo.endStage(start, "graph")
	res.Timings.GraphHeapPeak = bo.endStageHeap(heap, "graph")
	if cache != nil {
		bo.countLookup(stageGraph, graphCached)
	}

	start = time.Now()
	heap.begin()
	es := &EmbedStage{Graph: g, Cfg: cfg, Cache: cache}
	if cache != nil {
		es.InputFP = gs.Fingerprint()
	}
	emb, method, embedCached, err := es.Run()
	if err != nil {
		return nil, err
	}
	res.Embedding = emb
	res.MethodUsed = method
	res.Timings.Cache.Embed = hitOutcome(embedCached)
	res.Timings.Embed = bo.endStage(start, "embed")
	res.Timings.EmbedHeapPeak = bo.endStageHeap(heap, "embed")
	if cache != nil {
		bo.countLookup(stageEmbed, embedCached)
		// The registry counter is the single source for store-error
		// accounting; the per-build report is its delta since build
		// start (Cache increments the same counter it reports through).
		res.Timings.Cache.StoreErrors = cache.StoreErrors() - cache.storeErrBase
	}
	bo.done()
	return res, nil
}

func tableOutcome(reused, rebuilt int) StageOutcome {
	switch {
	case reused > 0 && rebuilt == 0:
		return StageCached
	case reused > 0:
		return StagePartial
	default:
		return StageRebuilt
	}
}

func hitOutcome(cached bool) StageOutcome {
	if cached {
		return StageCached
	}
	return StageRebuilt
}

// WithEmbedding returns a copy of r that deploys a different embedding
// — e.g. a dimension-reduced projection — while sharing the graph,
// stats and textifier. Accrued featurization time starts at zero on the
// copy.
func (r *Result) WithEmbedding(e *embed.Embedding) *Result {
	return &Result{
		Embedding:          e,
		Graph:              r.Graph,
		GraphStats:         r.GraphStats,
		Textifier:          r.Textifier,
		MethodUsed:         r.MethodUsed,
		UnweightedFallback: r.UnweightedFallback,
		Timings:            r.Timings,
		Config:             r.Config,
	}
}

// Featurize converts base-table rows into feature vectors using the
// built embedding (paper Section 4.4).
//
// tableName must be the table's name at embedding time. graphRow maps a
// row index of t to the row index used when the graph was built, or -1
// for rows that were not embedded (test rows): those are composed from
// the value-node embeddings of their tokens, with unseen tokens
// quantized through the fitted histograms and tokens absent from the
// embedding contributing nothing. exclude lists columns (such as the
// target) that must not leak into features.
func (r *Result) Featurize(t *dataset.Table, tableName string, exclude []string, graphRow func(i int) int) ([][]float64, error) {
	return r.FeaturizeWithMode(t, tableName, exclude, graphRow, r.Config.Featurization)
}

// FeaturizeWithMode is Featurize with an explicit featurization mode,
// letting deployment-strategy ablations reuse one built embedding.
//
// Rows featurize independently against the read-only embedding and
// tokenizer, so the work fans out in row chunks across Config.Workers
// goroutines (0 = GOMAXPROCS); each row writes only its own output
// vector, making the features bit-identical at every worker count.
// graphRow must therefore be safe for concurrent calls — pure index
// arithmetic, the common case, always is.
func (r *Result) FeaturizeWithMode(t *dataset.Table, tableName string, exclude []string, graphRow func(i int) int, mode FeaturizationMode) ([][]float64, error) {
	// One clock reading is the single timer: it feeds the accrued
	// Timings.Featurize AND the stage-duration histogram, so the CLI
	// report and a metrics scrape can never disagree. Bundle-loaded
	// Results have a nil registry and degrade to plain accrual.
	start := time.Now()
	defer func() {
		d := time.Since(start)
		r.mu.Lock()
		r.Timings.Featurize += d
		r.mu.Unlock()
		observeFeaturize(r.Config.Obs, d, t.NumRows())
	}()
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	out := make([][]float64, t.NumRows())
	for i := range out {
		out[i] = make([]float64, r.FeatureWidth(mode))
	}
	err := parallel.ForError(t.NumRows(), r.Config.Workers, func(_ int, pr parallel.Range) error {
		for i := pr.Lo; i < pr.Hi; i++ {
			if err := r.featurizeRowInto(out[i], t, tableName, i, skip, graphRow(i), mode); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FeatureWidth returns the length of the feature vectors Featurize
// produces under mode, including the unseen-token fallback slots.
func (r *Result) FeatureWidth(mode FeaturizationMode) int {
	width := r.Embedding.Dim
	if mode == RowPlusValue {
		width *= 2
	}
	return width + r.Config.UnseenFallbackDims
}

// FeaturizeRow featurizes row i of t into a freshly allocated vector of
// FeatureWidth(mode) entries — the online serving path (internal/serve),
// which receives rows one at a time instead of as a table scan. The
// output is bit-identical to row i of FeaturizeWithMode over the same
// table. graphRow is the row's index at embedding time, or -1 for rows
// that were never embedded (composed purely from value-node vectors).
func (r *Result) FeaturizeRow(t *dataset.Table, tableName string, exclude []string, i, graphRow int, mode FeaturizationMode) ([]float64, error) {
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	out := make([]float64, r.FeatureWidth(mode))
	if err := r.featurizeRowInto(out, t, tableName, i, skip, graphRow, mode); err != nil {
		return nil, err
	}
	return out, nil
}

// featurizeRowInto is the shared one-row kernel behind FeaturizeWithMode
// and FeaturizeRow. dst must have FeatureWidth(mode) entries and is
// written in full except for fallback slots left at zero.
func (r *Result) featurizeRowInto(dst []float64, t *dataset.Table, tableName string, i int, skip map[string]bool, graphRow int, mode FeaturizationMode) error {
	dim := r.Embedding.Dim
	width := dim
	if mode == RowPlusValue {
		width = 2 * dim
	}
	tokens, err := r.rowTokens(t, tableName, i, skip)
	if err != nil {
		return err
	}
	valueVec, _ := r.Embedding.MeanVector(tokens)

	// The row's own vector, widened straight into dst, else the mean.
	rowFound := false
	if graphRow >= 0 {
		_, rowFound = r.Embedding.AppendVector(dst[:0], embed.RowKey(tableName, graphRow))
	}
	if !rowFound {
		copy(dst[:dim], valueVec)
	}
	if mode == RowPlusValue {
		copy(dst[dim:width], valueVec)
	}
	if fallback := r.Config.UnseenFallbackDims; fallback > 0 {
		for _, tok := range tokens {
			if !r.Embedding.Has(tok) {
				dst[width+hashToken(tok)%fallback] = 1
			}
		}
	}
	return nil
}

// hashToken maps a token to a non-negative bucket for the one-hot
// fallback slots.
func hashToken(tok string) int {
	h := uint32(2166136261)
	for i := 0; i < len(tok); i++ {
		h = (h ^ uint32(tok[i])) * 16777619
	}
	return int(h & 0x7fffffff)
}

// rowTokens textifies row i of t under the fitted model, skipping the
// excluded columns.
func (r *Result) rowTokens(t *dataset.Table, tableName string, i int, skip map[string]bool) ([]string, error) {
	var tokens []string
	for _, c := range t.Columns {
		if skip[c.Name] {
			continue
		}
		toks, err := r.Textifier.TextifyValue(tableName, c.Name, c.Values[i])
		if err != nil {
			return nil, fmt.Errorf("core: featurize: %w", err)
		}
		tokens = append(tokens, toks...)
	}
	return tokens, nil
}
