package serve

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/ann"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Serving metric family names. The catalog — every family, its labels
// and meaning — is docs/OBSERVABILITY.md, and a test diffs that table
// against a live Server's registry so the two cannot drift.
const (
	metricUptime          = "leva_uptime_seconds"
	metricInFlight        = "leva_http_in_flight_requests"
	metricPanics          = "leva_http_panics_total"
	metricRequests        = "leva_http_requests_total"
	metricRequestErrors   = "leva_http_request_errors_total"
	metricRequestDuration = "leva_http_request_duration_seconds"
	metricResponses       = "leva_http_responses_total"
	metricRowsFeaturized  = "leva_rows_featurized_total"
	metricANNCacheHits    = "leva_ann_cache_hits_total"
	metricANNCacheMisses  = "leva_ann_cache_misses_total"
	metricANNIndexSize    = "leva_ann_index_size"
	metricQuantEnabled    = "leva_quant_enabled"
	metricQuantArenaBytes = "leva_quant_arena_bytes"
	metricGeneration      = "leva_bundle_generation"
	metricReloads         = "leva_reloads_total"
	metricReloadFailures  = "leva_reload_failures_total"
	metricReloadDuration  = "leva_reload_last_duration_seconds"
	metricReloadUnix      = "leva_reload_last_unix_seconds"

	metricAbandoned    = "leva_resilience_abandoned_total"
	metricBackoffs     = "leva_resilience_backoffs_total"
	metricLimit        = "leva_resilience_limit"
	metricQueueDepth   = "leva_resilience_queue_depth"
	metricShedByReason = "leva_shed_total"
)

// trackedStatuses are the response codes counted individually; anything
// else lands under code="other".
var trackedStatuses = []int{200, 400, 404, 405, 413, 429, 500, 503}

// endpointNames are the fixed endpoint label values — one per route in
// Server.Handler.
var endpointNames = []string{"featurize", "embedding", "neighbors", "healthz", "metrics", "reload"}

// metrics is the daemon-wide instrument set behind GET /metrics, one
// per Server (tests assert exact per-instance counts). Every value
// lives in an obs.Registry — the single source GET /metrics and the
// -debug-addr /debug/vars dump read from — with lock-free updates on
// the request hot path.
type metrics struct {
	reg   *obs.Registry
	start time.Time

	inFlight        *obs.Gauge
	panics          *obs.Counter
	requests        *obs.CounterVec   // by endpoint
	requestErrors   *obs.CounterVec   // by endpoint, status >= 400
	latency         *obs.HistogramVec // by endpoint, seconds
	statuses        *obs.CounterVec   // by code ("200", ..., "other")
	rowsFeaturized  *obs.Counter
	annCacheHits    *obs.Counter
	annCacheMisses  *obs.Counter
	annIndexSize    *obs.Gauge
	quantEnabled    *obs.Gauge
	quantArenaBytes *obs.Gauge

	abandoned    *obs.CounterVec // by reason (deadline, disconnect)
	shedByReason *obs.CounterVec // by reason

	generation        *obs.Gauge
	reloads           *obs.Counter
	reloadFailures    *obs.Counter
	lastReloadSeconds *obs.Gauge
	lastReloadUnix    *obs.Gauge
	lastReloadError   atomic.Value // string; reported on /healthz, not a number
}

// newMetrics builds the instrument set, reading the admission gauges
// and the backoff counter off l.
func newMetrics(l *limiter) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg:   r,
		start: time.Now(),
		inFlight: r.Gauge(metricInFlight,
			"HTTP requests currently being handled."),
		panics: r.Counter(metricPanics,
			"Handler panics recovered into 500 responses."),
		requests: r.CounterVec(metricRequests,
			"HTTP requests completed, by endpoint.", "endpoint"),
		requestErrors: r.CounterVec(metricRequestErrors,
			"HTTP requests answered with status >= 400, by endpoint.", "endpoint"),
		latency: r.HistogramVec(metricRequestDuration,
			"HTTP request wall time, by endpoint.",
			obs.LatencyBuckets, "endpoint"),
		statuses: r.CounterVec(metricResponses,
			"HTTP responses, by status code (untracked codes land under \"other\").", "code"),
		rowsFeaturized: r.Counter(metricRowsFeaturized,
			"Rows featurized by the serving path."),
		annCacheHits: r.Counter(metricANNCacheHits,
			"Neighbor-query cache hits."),
		annCacheMisses: r.Counter(metricANNCacheMisses,
			"Neighbor-query cache misses."),
		annIndexSize: r.Gauge(metricANNIndexSize,
			"Vectors in the serving ANN index (0 = no index loaded)."),
		quantEnabled: r.Gauge(metricQuantEnabled,
			"Whether the serving ANN index searches the int8 quantized arena (1) or float vectors (0)."),
		quantArenaBytes: r.Gauge(metricQuantArenaBytes,
			"Bytes held by the serving index's int8 arena plus per-vector scales (0 = not quantized)."),
		generation: r.Gauge(metricGeneration,
			"Serving bundle generation (1 at startup, +1 per successful reload)."),
		reloads: r.Counter(metricReloads,
			"Hot-reload attempts."),
		reloadFailures: r.Counter(metricReloadFailures,
			"Hot-reload attempts that failed (the previous bundle kept serving)."),
		lastReloadSeconds: r.Gauge(metricReloadDuration,
			"Duration of the last reload attempt."),
		lastReloadUnix: r.Gauge(metricReloadUnix,
			"Unix time of the last reload attempt (0 = never)."),
		abandoned: r.CounterVec(metricAbandoned,
			"Requests abandoned mid-flight, by reason (deadline = X-Leva-Deadline-Ms expired, disconnect = client closed the connection).", "reason"),
		shedByReason: r.CounterVec(metricShedByReason,
			"Requests shed with 429, by reason (capacity, queue_timeout, deadline, client_gone).", "reason"),
	}
	r.Register(obs.NewGaugeFunc(metricUptime,
		"Seconds since this server was created.",
		func() float64 { return time.Since(m.start).Seconds() }))
	r.Register(l.backoffs,
		obs.NewGaugeFunc(metricLimit,
			"Current adaptive concurrency limit (AIMD: climbs on success, falls on congestion).",
			l.currentLimit),
		obs.NewGaugeFunc(metricQueueDepth,
			"Requests waiting in the admission queue.",
			func() float64 { return float64(l.queueDepth()) }))
	// Process-wide substrates share their package-level instruments
	// into this server's registry, so one scrape covers worker-pool
	// saturation, durability syscall latency, and runtime health.
	parallel.RegisterMetrics(r)
	durable.RegisterMetrics(r)
	ann.RegisterMetrics(r)
	obs.RegisterRuntimeMetrics(r)
	return m
}

// recordReload accounts one reload attempt. The generation gauge itself
// is set by the swapper while holding the reload lock.
func (m *metrics) recordReload(d time.Duration, err error) {
	m.reloads.Inc()
	m.lastReloadSeconds.Set(d.Seconds())
	m.lastReloadUnix.Set(float64(time.Now().Unix()))
	if err != nil {
		m.reloadFailures.Inc()
		m.lastReloadError.Store(err.Error())
		return
	}
	m.lastReloadError.Store("")
}

// observe accounts one completed request.
func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	code := "other"
	for _, tracked := range trackedStatuses {
		if tracked == status {
			code = strconv.Itoa(status)
			break
		}
	}
	m.statuses.With(code).Inc()
	for _, name := range endpointNames {
		if name == endpoint {
			m.requests.With(endpoint).Inc()
			if status >= 400 {
				m.requestErrors.With(endpoint).Inc()
			}
			m.latency.With(endpoint).ObserveDuration(d)
			break
		}
	}
}
