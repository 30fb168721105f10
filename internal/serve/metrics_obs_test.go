package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/obs"
	"repro/internal/synth"
)

// metaLines renders the registry and keeps only the # HELP / # TYPE
// lines — the part of the exposition that is byte-stable regardless of
// traffic.
func metaLines(t *testing.T, m *metrics) string {
	t.Helper()
	var b strings.Builder
	if err := m.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var meta []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			meta = append(meta, line)
		}
	}
	return strings.Join(meta, "\n")
}

// The serving catalog, byte for byte. A diff here means a metric was
// renamed, retyped, or re-documented — all of which break dashboards
// and docs/OBSERVABILITY.md, so the golden is updated deliberately,
// together with them. Families render in name order.
const goldenServeMeta = `# HELP leva_ann_build_seconds Wall time of HNSW index builds.
# TYPE leva_ann_build_seconds histogram
# HELP leva_ann_builds_total Completed HNSW index builds (BuildVectors calls that returned an index).
# TYPE leva_ann_builds_total counter
# HELP leva_ann_cache_hits_total Neighbor-query cache hits.
# TYPE leva_ann_cache_hits_total counter
# HELP leva_ann_cache_misses_total Neighbor-query cache misses.
# TYPE leva_ann_cache_misses_total counter
# HELP leva_ann_index_size Vectors in the serving ANN index (0 = no index loaded).
# TYPE leva_ann_index_size gauge
# HELP leva_ann_queries_total ANN searches executed (SearchVector and SearchName, any caller).
# TYPE leva_ann_queries_total counter
# HELP leva_ann_query_seconds Latency of individual ANN searches.
# TYPE leva_ann_query_seconds histogram
# HELP leva_bundle_generation Serving bundle generation (1 at startup, +1 per successful reload).
# TYPE leva_bundle_generation gauge
# HELP leva_durable_errors_total Durable operations (WriteFile/PublishDir/RecoverDir) that returned an error.
# TYPE leva_durable_errors_total counter
# HELP leva_durable_fsync_seconds Latency of fsync calls issued by the durability protocol, by target (file or dir).
# TYPE leva_durable_fsync_seconds histogram
# HELP leva_durable_publishes_total Completed durable publishes, by kind (file = WriteFile, dir = PublishDir, recover = RecoverDir restoration).
# TYPE leva_durable_publishes_total counter
# HELP leva_durable_rename_seconds Latency of rename calls issued by the durability protocol.
# TYPE leva_durable_rename_seconds histogram
# HELP leva_go_gc_cycles_total Completed GC cycles since process start.
# TYPE leva_go_gc_cycles_total counter
# HELP leva_go_goroutines Number of live goroutines.
# TYPE leva_go_goroutines gauge
# HELP leva_go_heap_alloc_bytes Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).
# TYPE leva_go_heap_alloc_bytes gauge
# HELP leva_http_in_flight_requests HTTP requests currently being handled.
# TYPE leva_http_in_flight_requests gauge
# HELP leva_http_panics_total Handler panics recovered into 500 responses.
# TYPE leva_http_panics_total counter
# HELP leva_http_request_duration_seconds HTTP request wall time, by endpoint.
# TYPE leva_http_request_duration_seconds histogram
# HELP leva_http_request_errors_total HTTP requests answered with status >= 400, by endpoint.
# TYPE leva_http_request_errors_total counter
# HELP leva_http_requests_total HTTP requests completed, by endpoint.
# TYPE leva_http_requests_total counter
# HELP leva_http_responses_total HTTP responses, by status code (untracked codes land under "other").
# TYPE leva_http_responses_total counter
# HELP leva_parallel_busy_workers Shard goroutines currently executing across all fan-outs.
# TYPE leva_parallel_busy_workers gauge
# HELP leva_parallel_fanouts_total Completed fan-outs (For/ForEach/ForError calls), including single-shard inline runs.
# TYPE leva_parallel_fanouts_total counter
# HELP leva_parallel_inflight_fanouts For/ForEach/ForError calls currently executing.
# TYPE leva_parallel_inflight_fanouts gauge
# HELP leva_parallel_shards_total Shards executed across all fan-outs.
# TYPE leva_parallel_shards_total counter
# HELP leva_quant_arena_bytes Bytes held by the serving index's int8 arena plus per-vector scales (0 = not quantized).
# TYPE leva_quant_arena_bytes gauge
# HELP leva_quant_enabled Whether the serving ANN index searches the int8 quantized arena (1) or float vectors (0).
# TYPE leva_quant_enabled gauge
# HELP leva_quant_queries_total ANN searches answered through the int8 quantized arena (subset of leva_ann_queries_total).
# TYPE leva_quant_queries_total counter
# HELP leva_quant_reranked_total Candidates re-ranked in float64 after int8 graph traversal (the accuracy-restoring pass of quantized searches).
# TYPE leva_quant_reranked_total counter
# HELP leva_reload_failures_total Hot-reload attempts that failed (the previous bundle kept serving).
# TYPE leva_reload_failures_total counter
# HELP leva_reload_last_duration_seconds Duration of the last reload attempt.
# TYPE leva_reload_last_duration_seconds gauge
# HELP leva_reload_last_unix_seconds Unix time of the last reload attempt (0 = never).
# TYPE leva_reload_last_unix_seconds gauge
# HELP leva_reloads_total Hot-reload attempts.
# TYPE leva_reloads_total counter
# HELP leva_resilience_abandoned_total Requests abandoned mid-flight, by reason (deadline = X-Leva-Deadline-Ms expired, disconnect = client closed the connection).
# TYPE leva_resilience_abandoned_total counter
# HELP leva_resilience_backoffs_total Multiplicative decreases of the adaptive concurrency limit (each marks observed congestion).
# TYPE leva_resilience_backoffs_total counter
# HELP leva_resilience_limit Current adaptive concurrency limit (AIMD: climbs on success, falls on congestion).
# TYPE leva_resilience_limit gauge
# HELP leva_resilience_queue_depth Requests waiting in the admission queue.
# TYPE leva_resilience_queue_depth gauge
# HELP leva_rows_featurized_total Rows featurized by the serving path.
# TYPE leva_rows_featurized_total counter
# HELP leva_shed_total Requests shed with 429, by reason (capacity, queue_timeout, deadline, client_gone).
# TYPE leva_shed_total counter
# HELP leva_uptime_seconds Seconds since this server was created.
# TYPE leva_uptime_seconds gauge`

func TestMetricsPrometheusGolden(t *testing.T) {
	got := metaLines(t, newMetrics(newLimiter(1, 0, time.Second)))
	if got != goldenServeMeta {
		t.Errorf("HELP/TYPE lines drifted from golden.\ngot:\n%s\n\nwant:\n%s", got, goldenServeMeta)
	}
}

func TestMetricsPrometheusEndToEnd(t *testing.T) {
	_, loaded, spec := fixture(t)
	srv := New(loaded, Config{})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := mustJSON(map[string]any{
		"table": spec.BaseTable,
		"rows":  []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)},
	})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// No route listed in testdata/deleted_surface.txt answers 200.
	deleted := deletedSurface(t)
	for _, route := range deleted["route"] {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			req, err := http.NewRequest(method, ts.URL+route, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				t.Errorf("%s %s: status 200, want the route gone", method, route)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	// The scrape itself is the 3rd request but is observed after its
	// body is written, so it must not be in its own counters yet.
	for _, want := range []string{
		`leva_http_requests_total{endpoint="featurize"} 2`,
		`leva_http_responses_total{code="200"} 2`,
		`leva_http_request_duration_seconds_count{endpoint="featurize"} 2`,
		`leva_rows_featurized_total 2`,
		`leva_bundle_generation 1`,
		`leva_http_request_duration_seconds_bucket{endpoint="featurize",le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(text, `le="0.005"`) {
		t.Error("exposition has no latency bucket boundaries")
	}

	// Deleted surface stays deleted: no family, series or healthz key
	// listed in testdata/deleted_surface.txt is served (the route probes
	// above would have put a deleted endpoint's series on /metrics).
	for _, name := range append(deleted["metric"], deleted["series"]...) {
		if strings.Contains(text, name) {
			t.Errorf("exposition still has %s", name)
		}
	}
	var hz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}
	for _, key := range deleted["healthz"] {
		if _, ok := hz[key]; ok {
			t.Errorf("/healthz still has a %q key", key)
		}
	}
}

// TestUnmatchedRequestsCounted: a request no route takes is answered
// through the middleware, not by the mux itself — an unknown path is a
// 404, a known path under another method a 405 whose Allow header
// lists the methods the path takes — and both are counted in
// leva_http_responses_total on the next scrape.
func TestUnmatchedRequestsCounted(t *testing.T) {
	_, loaded, _ := fixture(t)
	h := New(loaded, Config{}).Handler()
	for _, tc := range []struct {
		method, path string
		status       int
		allow        string
	}{
		{"GET", "/v1/no-such-route", 404, ""},
		{"GET", "/v1/featurize", 405, "POST"},
		{"POST", "/healthz", 405, "GET, HEAD"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.status || rec.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s: status %d, Allow %q; want %d, %q", tc.method, tc.path,
				rec.Code, rec.Header().Get("Allow"), tc.status, tc.allow)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`leva_http_responses_total{code="404"} 1`,
		`leva_http_responses_total{code="405"} 2`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// deletedSurface reads testdata/deleted_surface.txt into kind → values.
func deletedSurface(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/deleted_surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kind, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("deleted_surface.txt: malformed line %q", line)
		}
		out[kind] = append(out[kind], value)
	}
	return out
}

// TestMetricsConcurrentScrapeAndReload drives featurization, Prometheus
// scrapes, health checks, and hot reloads all at once. Run under -race,
// this is the proof that the registry's hot paths and the reload error
// /healthz reports are properly synchronized.
func TestMetricsConcurrentScrapeAndReload(t *testing.T) {
	_, loaded, spec := fixture(t)
	srv := New(loaded, Config{
		Loader: func() (*core.Result, error) { return loaded, nil },
	})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := mustJSON(map[string]any{
		"table": spec.BaseTable,
		"rows":  []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)},
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				url := ts.URL + "/metrics"
				if i%2 == 1 {
					url = ts.URL + "/healthz"
				}
				resp, err := http.Get(url)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := srv.Reload(); err != nil {
					t.Errorf("reload: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	m := srv.metrics
	if m.reloads.Value() != 20 || m.generation.Value() != 21 {
		t.Errorf("reloads = %v, generation = %v, want 20 and 21", m.reloads.Value(), m.generation.Value())
	}
	if got := m.requests.With("featurize").Value(); got != 40 {
		t.Errorf("featurize count = %v, want 40", got)
	}
}

// TestMetricsCatalogMatchesDocs diffs the live registries against the
// catalog tables in docs/OBSERVABILITY.md: every family a Server or an
// instrumented build emits must be documented, and every documented
// leva_* family must still exist. This is the guarantee the runbook
// sells — the doc IS the metric surface.
func TestMetricsCatalogMatchesDocs(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile("`(leva_[a-z0-9_]+)`").FindAllStringSubmatch(string(raw), -1) {
		documented[name[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no leva_* metric names found in docs/OBSERVABILITY.md")
	}

	emitted := map[string]bool{}
	// The serving surface: everything a Server's registry holds.
	for _, f := range newMetrics(newLimiter(1, 0, time.Second)).reg.Families() {
		emitted[f.Name] = true
	}
	// The offline-pipeline surface: run one tiny instrumented build (with a
	// stage cache, so lookup families register) plus one featurization.
	reg := obs.NewRegistry()
	bspec := synth.Student(synth.StudentOptions{Students: 12, Seed: 3})
	res, err := core.BuildEmbedding(bspec.DB, core.Config{
		Dim: 4, Method: embed.MethodMF, Seed: 3, Workers: 1,
		CacheDir: t.TempDir(), Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Featurize(bspec.DB.Table(bspec.BaseTable), bspec.BaseTable,
		[]string{bspec.Target}, func(i int) int { return i }); err != nil {
		t.Fatal(err)
	}
	for _, f := range reg.Families() {
		emitted[f.Name] = true
	}

	for name := range emitted {
		if !documented[name] {
			t.Errorf("metric %s is emitted but missing from docs/OBSERVABILITY.md", name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which no registry emits", name)
		}
	}
}
