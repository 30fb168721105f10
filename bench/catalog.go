package main

// metricDef describes one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// workloadDef is one traffic mix (or offline build) the benchmark runs.
// The rates apply to the serving workloads only: rateLo and rateHi are
// the fixed-rate phases, maxLo/maxHi the max_rps bisection interval.
type workloadDef struct {
	Name   string
	Why    string
	RateLo float64
	RateHi float64
	MaxLo  float64
	MaxHi  float64
}

// workloads is the fixed workload set. Each one stresses a different
// layer; the why-sentences are copied verbatim into BENCHMARK.json (a
// test keeps the two in step).
var workloads = []workloadDef{
	{
		Name: "embed-restbase",
		Why:  "leva embed -dim 64 -method mf -index on restbase@0.3, 3 cold then 7 warm runs: MF and the HNSW build do the work, warm runs read the stage cache, no server runs",
	},
	{
		Name:   "featurize-zipf",
		Why:    "levad POST /v1/featurize at 1000 req/s, Zipf rows, 10% 32-row requests: decode, tokenize, compose, encode and the row cache work while the ANN index does none",
		RateLo: 1000, RateHi: 1800, MaxLo: 1500, MaxHi: 8000,
	},
	{
		Name:   "neighbors-vector",
		Why:    "levad -index POST /v1/neighbors at 500 req/s with noisy raw vectors, k=10: HNSW traversal dominates and both caches are bypassed, so ANN changes show here only",
		RateLo: 500, RateHi: 1100, MaxLo: 1000, MaxHi: 4000,
	},
	{
		Name:   "mixed-reload",
		Why:    "levad -mmap -quantize at 1000 req/s of featurize, neighbors-by-token and embedding reads, hot-reloading between two bundles every 4 s: the only write path",
		RateLo: 1000, RateHi: 1700, MaxLo: 2000, MaxHi: 8000,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// endToEnd are the metrics a user of leva or levad sees that a change
// is held to. Every untraced run of every workload reports all of them
// (README.md gives their measured spreads):
//
//   - setup_s: levad exec to its first /healthz 200 on the serving
//     workloads, levagen on embed-restbase; the median of setupRuns.
//     Set-up time has the largest bound, 0.25: it is a timing, and it
//     is end-to-end so that work moved into set-up shows.
//   - peak_rss_mb: levad's VmHWM at the end of the run, or the median
//     maxrss of the cold `leva embed` runs.
//   - artifact_mb: bundle.bin plus index.bin as the cold `leva embed`
//     writes them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "artifact_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// timingBound is the 10% regression bound the benchmark was specified
// with for its timings. No timing repeats within it from run to run on
// the reference machine, whose speed changes by 30% or more for tens of
// seconds at a time, so the timings are per-layer metrics. Every
// untraced run still measures the everyRun ones, and -compare judges
// them against this bound, where they are mostly unresolved.
const timingBound = 0.10

// everyRun are the per-layer timings that every untraced run of the
// workloads that have them measures.
var everyRun = []string{"embed_cold_s", "embed_warm_s", "lat_p50_ms", "lat_p99_ms"}

// perLayer are the traced run's metrics. The first group are the
// timings a user sees, demoted from end-to-end (see timingBound); the
// second times calls into each module's public functions from this
// package; the third is scraped from levad's /metrics; the last
// validates the load generator.
var perLayer = []metricDef{
	{Name: "embed_cold_s", Unit: "s", Better: "lower"},
	{Name: "embed_warm_s", Unit: "s", Better: "lower"},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_p99_hi_ms", Unit: "ms", Better: "lower"},
	{Name: "max_rps", Unit: "req/s", Better: "higher"},
	{Name: "reload_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "recall_at_10", Unit: "fraction", Better: "higher"},

	{Name: "dataset.read_csv_ms", Unit: "ms", Better: "lower"},
	{Name: "fingerprint.tables_ms", Unit: "ms", Better: "lower"},
	{Name: "textify.run_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.run_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.nodes", Unit: "count", Better: "lower"},
	{Name: "graph.edges", Unit: "count", Better: "lower"},
	{Name: "embed.mf_ms", Unit: "ms", Better: "lower"},
	{Name: "ann.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.save_bundle_ms", Unit: "ms", Better: "lower"},
	{Name: "ann.save_ms", Unit: "ms", Better: "lower"},
	{Name: "embed.write_tsv_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.store_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.load_ms", Unit: "ms", Better: "lower"},
	{Name: "bundle.bytes", Unit: "bytes", Better: "lower"},
	{Name: "ann.index_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.load_bundle_ms", Unit: "ms", Better: "lower"},
	{Name: "core.load_bundle_mmap_ms", Unit: "ms", Better: "lower"},
	{Name: "ann.load_ms", Unit: "ms", Better: "lower"},
	{Name: "ann.quantize_ms", Unit: "ms", Better: "lower"},
	{Name: "ann.search_us", Unit: "us", Better: "lower"},
	{Name: "ann.search_int8_us", Unit: "us", Better: "lower"},
	{Name: "ann.brute_us", Unit: "us", Better: "lower"},
	{Name: "ann.recall_at_10_hnsw", Unit: "fraction", Better: "higher"},
	{Name: "ann.recall_at_10_int8", Unit: "fraction", Better: "higher"},
	{Name: "serve.handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "textify.tokenize_row_us", Unit: "us", Better: "lower"},
	{Name: "embed.compose_row_us", Unit: "us", Better: "lower"},
	{Name: "core.featurize_row_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_batch_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "http.transport_us", Unit: "us", Better: "lower"},

	{Name: "serve.rowcache_hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "serve.ann_cache_hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "go.gc_per_1k_req", Unit: "count", Better: "lower"},
	{Name: "go.heap_alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "ann.server_query_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.reload_server_ms", Unit: "ms", Better: "lower"},
	{Name: "ann.quant_rerank_per_query", Unit: "count", Better: "lower"},
	{Name: "resilience.shed_total", Unit: "count", Better: "lower"},
	{Name: "resilience.degraded_total", Unit: "count", Better: "lower"},

	{Name: "bench.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.conn_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricByName finds a metric in either catalog.
func metricByName(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
