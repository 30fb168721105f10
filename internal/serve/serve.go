// Package serve is Leva's online serving subsystem: a long-lived
// featurization service in front of a saved deployment bundle (paper
// Section 2's "build the embedding once, featurize any downstream
// task"). It wraps a loaded core.Result in a read-optimized,
// concurrency-safe store — token→vector lookups straight off the
// embedding index, an LRU cache of fully-featurized rows, and an
// optional micro-batcher that coalesces concurrent single-row requests
// — and exposes it over HTTP:
//
//	POST /v1/featurize        rows in, dense feature vectors out
//	GET  /v1/embedding/{token} one embedding vector
//	GET  /v1/neighbors        top-k approximate nearest neighbors of a
//	POST /v1/neighbors        token (GET) or raw vector (POST), when an
//	                          ANN index is configured
//	GET  /healthz             liveness + degradation (per-breaker state)
//	GET  /metrics             Prometheus text (?format=json for the
//	                          legacy JSON snapshot)
//	GET  /admin/chaos         chaos-harness state (POST to reconfigure;
//	                          503 unless started with a chaos source)
//
// The HTTP layer carries the production plumbing: deadline propagation
// (clients bound their wait with X-Leva-Deadline-Ms and the context
// flows through featurize/batch/neighbors), an adaptive AIMD
// concurrency limiter with a short bounded queue that sheds excess
// load with Retry-After-carrying 429s, per-dependency circuit breakers
// with degraded fallbacks (brute-force neighbor scans, cache bypass),
// per-request timeouts, structured request logging, and graceful
// shutdown that drains in-flight requests. internal/resilience holds
// the mechanisms; cmd/levad is the daemon around this package.
package serve

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Config tunes the serving daemon. The zero value gets sensible
// production defaults; fields set to a negative value disable the
// corresponding feature where noted.
type Config struct {
	// Addr is the listen address. Default ":9090".
	Addr string
	// MaxInFlight is the adaptive concurrency limiter's hard ceiling:
	// at most this many featurize/embedding/neighbors requests run at
	// once, and the AIMD limit starts here and can only fall below it
	// under congestion. Excess requests queue briefly (see QueueLen),
	// then shed with 429 + Retry-After. Default 64.
	MaxInFlight int
	// QueueLen bounds requests waiting for an admission slot beyond the
	// limit. Default 16; negative disables queueing (immediate shed at
	// the limit).
	QueueLen int
	// QueueTimeout bounds one request's wait in the admission queue.
	// Default 100ms.
	QueueTimeout time.Duration
	// DependencyTimeout is the per-call time budget for circuit-broken
	// dependencies (the ANN index). Default 2s; negative disables.
	DependencyTimeout time.Duration
	// BreakerFailures is the consecutive-failure count that trips a
	// dependency's circuit breaker. Default 5.
	BreakerFailures int
	// BreakerOpenFor is how long a tripped breaker rejects calls before
	// admitting recovery probes. Default 5s.
	BreakerOpenFor time.Duration
	// Chaos, when non-nil, arms the request-level chaos harness: faults
	// from this seeded source are injected per its rules ("http", "ann",
	// "rowcache" targets) and /admin/chaos can reconfigure it at
	// runtime. Nil — the default — means no fault injection, ever.
	Chaos *resilience.Chaos
	// DisableFallback turns off degraded serving: a breaker-open or
	// failing ANN dependency answers 503 with an error taxonomy instead
	// of falling back to an exact brute-force scan.
	DisableFallback bool
	// RequestTimeout bounds one request's handler time; timed-out
	// requests get 503. Default 10s; negative disables.
	RequestTimeout time.Duration
	// CacheSize is the LRU capacity (fully-featurized rows). Default
	// 4096 entries; negative disables the cache.
	CacheSize int
	// BatchWindow, when positive, enables micro-batching: cache-miss
	// rows wait up to this long to be grouped with rows from
	// concurrent requests before featurizing. Off by default.
	BatchWindow time.Duration
	// BatchMax caps rows per micro-batch. Default 64.
	BatchMax int
	// MaxRowsPerRequest bounds one featurize call. Default 1024.
	MaxRowsPerRequest int
	// MaxBodyBytes bounds the request body. Default 8 MiB.
	MaxBodyBytes int64
	// Workers caps the goroutines featurizing one batch. 0 means
	// GOMAXPROCS.
	Workers int
	// Logger receives one structured record per request. Nil disables
	// request logging.
	Logger *slog.Logger
	// Loader reloads the serving bundle for hot reload (SIGHUP in
	// levad, POST /admin/reload). It is called with no request in
	// flight blocked on it — the old store keeps serving while the
	// candidate loads and validates. Nil disables hot reload.
	Loader func() (*core.Result, error)
	// Index, when non-nil, enables GET/POST /v1/neighbors: top-k
	// approximate-nearest-neighbor queries against this HNSW index.
	// The index must cover the served embedding (same entity names and
	// dimension). Nil means /v1/neighbors answers 503. The server takes
	// ownership of a mapped index (ann.LoadOptions.MMap): the
	// generation serving it unmaps it when it retires.
	Index *ann.Index
	// IndexLoader reloads the ANN index alongside the bundle during hot
	// reload. When nil, reloads carry the current index forward
	// unchanged; when set, the candidate index is loaded and validated
	// against the candidate bundle (dimension match, canary search)
	// before either is swapped in — a bad index rejects the whole
	// reload, exactly like a bad bundle. Each generation owns the
	// index its loader returned and unmaps it when it retires; a
	// rejected candidate is unmapped at once.
	IndexLoader func() (*ann.Index, error)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":9090"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.QueueLen == 0 {
		c.QueueLen = 16
	}
	if c.QueueLen < 0 {
		c.QueueLen = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.DependencyTimeout == 0 {
		c.DependencyTimeout = 2 * time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 5 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.MaxRowsPerRequest <= 0 {
		c.MaxRowsPerRequest = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server serves one loaded bundle over HTTP. The bundle can be swapped
// at runtime — see Reload — without dropping a request: handlers pin
// the store they start with, so every response is computed against
// exactly one bundle version.
type Server struct {
	cfg     Config
	st      atomic.Pointer[store]
	metrics *metrics
	logger  *slog.Logger
	httpSrv *http.Server
	ln      net.Listener

	// limiter is the adaptive admission controller behind every
	// data-plane endpoint; breakers guard the dependencies (see
	// depNames); chaos is the optional fault source; guards hands the
	// breaker/chaos pair to each store generation.
	limiter  *resilience.Limiter
	breakers map[string]*resilience.Breaker
	chaos    *resilience.Chaos
	guards   *guards

	// reloadMu serializes reloads (and the shutdown/reload handoff):
	// overlapping SIGHUPs queue behind each other instead of
	// interleaving their validate-then-swap sequences.
	reloadMu sync.Mutex
	closed   bool

	// testHookFeaturize, when set, runs inside the featurize handler
	// after admission (limiter slot held, store pinned) — the seam the
	// saturation, drain, and reload tests use to hold a request in
	// flight.
	testHookFeaturize func()
	// testHookPanic, when set, is invoked inside the featurize handler
	// and may panic — the seam the panic-recovery test uses.
	testHookPanic func()
	// testHookNeighbors, when set, runs inside the neighbors handler
	// after admission (limiter slot held, store pinned) — the seam the
	// reload-pinning test uses to hold a query in flight.
	testHookNeighbors func()
}

// New wraps a built or bundle-loaded Result in a Server. The Result's
// embedding and tokenizer are treated as immutable from here on.
func New(res *core.Result, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()
	s := &Server{
		cfg:     cfg,
		metrics: m,
		logger:  cfg.Logger,
		chaos:   cfg.Chaos,
	}
	s.limiter = resilience.NewLimiter(resilience.LimiterConfig{
		MaxLimit:     cfg.MaxInFlight,
		QueueLen:     cfg.QueueLen,
		QueueTimeout: cfg.QueueTimeout,
		OnBackoff:    m.backoffs.Inc,
	})
	m.setLimiter(s.limiter)
	s.breakers = s.newBreakers()
	s.guards = &guards{chaos: s.chaos, breakers: s.breakers}
	if s.chaos != nil {
		s.chaos.OnInject = func(target, kind string) {
			m.chaosInjections.With(target, kind).Inc()
		}
		if s.chaos.Enabled() {
			m.chaosEnabled.Set(1)
		}
	}
	first := newStore(res, cfg.Index, cfg, m, s.guards)
	first.gen = 1
	s.st.Store(first)
	m.generation.Set(1)
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s
}

// Handler returns the fully middleware-wrapped route table, usable
// directly in tests or behind an outer mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/featurize", s.instrument("featurize", true, s.withStore(s.handleFeaturize)))
	mux.Handle("GET /v1/embedding/{token}", s.instrument("embedding", true, s.withStore(s.handleEmbedding)))
	neighbors := s.instrument("neighbors", true, s.withStore(s.handleNeighbors))
	mux.Handle("GET /v1/neighbors", neighbors)
	mux.Handle("POST /v1/neighbors", neighbors)
	mux.Handle("GET /healthz", s.instrument("healthz", false, s.withStore(s.handleHealthz)))
	mux.Handle("GET /metrics", s.instrument("metrics", false, http.HandlerFunc(s.handleMetrics)))
	mux.Handle("POST /admin/reload", s.instrument("reload", false, http.HandlerFunc(s.handleReload)))
	chaos := s.instrument("chaos", false, http.HandlerFunc(s.handleChaos))
	mux.Handle("GET /admin/chaos", chaos)
	mux.Handle("POST /admin/chaos", chaos)
	return mux
}

// curStore returns the currently serving store without pinning it —
// for tests and metrics; request paths use acquireStore.
func (s *Server) curStore() *store { return s.st.Load() }

// Registry exposes the server's metric registry — the instruments
// behind GET /metrics — so embedding binaries (cmd/levad) can mount
// additional views such as /debug/vars.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// acquireStore pins the serving store for one request: the returned
// store stays fully usable (batcher included) until release, even if a
// reload swaps it out mid-request. The re-check loop closes the race
// where a swap lands between Load and the ref increment — if the store
// we grabbed is no longer current it may already be retired, so drop
// it and take the new one.
func (s *Server) acquireStore() *store {
	for {
		st := s.st.Load()
		st.refs.Add(1)
		if s.st.Load() == st {
			return st
		}
		st.release()
	}
}

// withStore adapts a store-pinned handler to http.Handler.
func (s *Server) withStore(h func(*store, http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := s.acquireStore()
		defer st.release()
		h(st, w, r)
	})
}

// Listen binds the configured address and returns the bound address
// (which resolves ":0" to the chosen port). Idempotent.
func (s *Server) Listen() (net.Addr, error) {
	if s.ln != nil {
		return s.ln.Addr(), nil
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Serve accepts connections until Shutdown; it returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve() error {
	if _, err := s.Listen(); err != nil {
		return err
	}
	return s.httpSrv.Serve(s.ln)
}

// Shutdown stops accepting new connections and drains in-flight
// requests until they finish or ctx expires, then retires the serving
// store (its micro-batcher stops once the last drained request lets go
// of it). Further reloads are refused.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if !s.closed {
		s.closed = true
		s.st.Load().release()
	}
	return err
}
