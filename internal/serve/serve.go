// Package serve is Leva's online serving subsystem: a long-lived
// featurization service in front of a saved deployment bundle (paper
// Section 2's "build the embedding once, featurize any downstream
// task"). It wraps a loaded core.Result in a read-optimized,
// concurrency-safe store — token→vector lookups straight off the
// embedding index, rows featurized per request, and an LRU cache of
// token-keyed neighbor queries — and exposes it over HTTP:
//
//	POST /v1/featurize        rows in, dense feature vectors out
//	GET  /v1/embedding/{token} one embedding vector
//	GET  /v1/neighbors        top-k approximate nearest neighbors of a
//	POST /v1/neighbors        token (GET) or raw vector (POST), when an
//	                          ANN index is configured
//	GET  /healthz             liveness, generation, last reload error
//	GET  /metrics             Prometheus text
//	POST /admin/reload        hot-reload the bundle (and index)
//
// The HTTP layer carries the production plumbing: deadline propagation
// (clients bound their wait with X-Leva-Deadline-Ms), an adaptive AIMD
// concurrency limiter with a short bounded queue that sheds excess
// load with Retry-After-carrying 429s (admission.go), per-request
// timeouts, structured request logging, and graceful shutdown that
// drains in-flight requests. Hot reload refuses, without loading it, a
// candidate that has not changed since it was last rejected. cmd/levad
// is the daemon around this package.
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
	// RequestTimeout bounds one request's handler time; timed-out
	// requests get 503. Default 10s; negative disables.
	RequestTimeout time.Duration
	// CacheSize is the capacity of the token-keyed /v1/neighbors LRU
	// (one entry per distinct token, k and efSearch). Default 4096
	// entries; negative disables the cache. Featurized rows are never
	// cached.
	CacheSize int
	// MaxRowsPerRequest bounds one featurize call. Default 1024.
	MaxRowsPerRequest int
	// MaxBodyBytes bounds the request body. Default 8 MiB.
	MaxBodyBytes int64
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
	// dimension); LoadGeneration checks a loaded pair. Nil means
	// /v1/neighbors answers 503. The server takes ownership of a
	// mapped index (ann.LoadOptions.MMap): the generation serving it
	// unmaps it when it retires.
	Index *ann.Index
	// IndexLoader reloads the ANN index alongside the bundle during hot
	// reload: each generation is one bundle plus the index loaded with
	// it, validated as a pair (see LoadGeneration) before either is
	// swapped in — a bad index rejects the whole reload, exactly like a
	// bad bundle. Each generation owns the index its loader returned
	// and unmaps it when it retires; a rejected candidate is unmapped
	// at once. A server with an Index must have an IndexLoader to
	// reload: without one, Reload fails with ErrReloadDisabled rather
	// than serve the old index against a new embedding.
	IndexLoader func() (*ann.Index, error)
	// ReloadDirs are the sealed directories Loader and IndexLoader read
	// (in levad, -bundle and -index). Before each reload the server
	// stamps them (durable.Stamp: the manifest's digest plus the size,
	// modification time and inode of every listed file); a candidate
	// whose stamps equal those of the last rejected one is refused
	// without loading it, with that rejection's error. Republishing or
	// touching a file makes the next reload load again. Empty disables
	// the check: every reload loads.
	ReloadDirs []string
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
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
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
	// data-plane endpoint.
	limiter *limiter

	// reloadMu serializes reloads (and the shutdown/reload handoff):
	// overlapping SIGHUPs queue behind each other instead of
	// interleaving their validate-then-swap sequences. It guards closed
	// and rejected, the memo of the last rejected candidate (nil after
	// a successful reload).
	reloadMu sync.Mutex
	closed   bool
	rejected *rejectedCandidate

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
	l := newLimiter(cfg.MaxInFlight, cfg.QueueLen, cfg.QueueTimeout)
	m := newMetrics(l)
	s := &Server{
		cfg:     cfg,
		metrics: m,
		logger:  cfg.Logger,
		limiter: l,
	}
	first := newStore(res, cfg.Index, cfg, m)
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
	// "/" takes every request no route above matches — an unknown path
	// or a known one under another method — so the answer carries a
	// reason and is counted, instead of the mux's own plain-text reply.
	mux.Handle("/", s.instrument("unmatched", false, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handleUnmatched(mux, w, r)
	})))
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
// store stays fully usable (its mappings included) until release, even
// if a reload swaps it out mid-request. The re-check loop closes the race
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
// store (its mappings are released once the last drained request lets
// go of it). Further reloads are refused.
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
