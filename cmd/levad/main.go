// Command levad is Leva's embedding-serving daemon: it loads a
// deployment bundle saved with `leva embed -bundle` (or
// Result.SaveBundle) and answers online featurization over HTTP, so a
// relational embedding built once can featurize rows for any number of
// downstream tasks without retraining.
//
//	levad -bundle ./bundle -addr :9090
//
// Endpoints:
//
//	POST /v1/featurize         rows in, dense feature vectors out
//	GET  /v1/embedding/{token}  one embedding vector
//	GET  /v1/neighbors          top-k ANN neighbors by token (with -index)
//	POST /v1/neighbors          top-k ANN neighbors by token or raw vector
//	GET  /healthz              liveness, generation, last reload error
//	GET  /metrics              Prometheus text
//	POST /admin/reload         hot-reload the bundle (and index) directory
//
// With -debug-addr, a second listener serves net/http/pprof under
// /debug/pprof/ and a JSON metric dump at /debug/vars — bind it to
// loopback in production.
//
// The daemon admits load through an adaptive AIMD limiter capped at
// -max-inflight (excess requests queue up to -queue for -queue-timeout,
// then shed with 429 + Retry-After), honors client deadlines sent as
// X-Leva-Deadline-Ms, times out individual requests at
// -request-timeout, logs one structured JSON record per request to
// stderr, and on SIGINT/SIGTERM stops accepting connections and drains
// in-flight requests for up to -drain-timeout before exiting. SIGHUP
// (or POST /admin/reload) re-reads the bundle directory and swaps it in
// without dropping in-flight requests; a bundle that fails validation
// is rejected and the current one keeps serving. A candidate that has
// not changed since it was rejected (same manifests, same listed
// files: size, modification time and inode) is refused again without
// being read; republish or touch it to retry. Each load reads the
// bundle and the ANN index concurrently. Where the platform supports it
// (linux), the daemon memory-maps both files by default, so loads and
// reloads cost page-table setup plus an integrity hash instead of
// copying every vector onto the heap; each generation unmaps both files
// when its last request finishes. A mapped file must only ever be
// replaced through leva's rename protocol — rewriting it in place under
// a running daemon can change served bytes or crash it with SIGBUS —
// so pass -mmap=false to read the files onto the heap instead.
// Each generation is one bundle plus the index loaded with it, checked
// as a pair (the index's entities must be the bundle's) at startup and
// on every reload alike. -quantize quantizes each loaded index to int8
// and answers neighbor searches from that arena (4x less memory
// traffic than the index's float32 vectors) with an exact float64
// re-rank of the final beam;
// /v1/featurize is unaffected. See docs/SERVING.md and
// docs/OPERATIONS.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	leva "repro"
	"repro/internal/ann"
	"repro/internal/durable"
	"repro/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "levad:", err)
		os.Exit(1)
	}
}

// run is main minus the exit code, so tests can drive the full daemon
// lifecycle — including signal-triggered draining — in process.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("levad", flag.ContinueOnError)
	bundle := fs.String("bundle", "", "deployment bundle directory (required; from `leva embed -bundle`)")
	indexDir := fs.String("index", "", "ANN index directory (from `leva embed -index`); enables /v1/neighbors")
	addr := fs.String("addr", ":9090", "HTTP listen address (use 127.0.0.1:0 for an ephemeral port)")
	maxInFlight := fs.Int("max-inflight", 64, "adaptive concurrency ceiling: admitted requests before queueing and shedding 429s")
	queueLen := fs.Int("queue", 16, "requests allowed to wait for an admission slot (0 sheds immediately at the limit)")
	queueTimeout := fs.Duration("queue-timeout", 100*time.Millisecond, "max wait in the admission queue before shedding 429")
	reqTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request handler budget (503 on expiry)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	cacheSize := fs.Int("cache", 4096, "LRU entries for token-keyed /v1/neighbors queries (0 disables)")
	mmapFiles := fs.Bool("mmap", durable.MapSupported, "memory-map bundle.bin and index.bin instead of reading them onto the heap (on by default where supported; pass -mmap=false if you rewrite those files in place instead of republishing them)")
	quantize := fs.Bool("quantize", false, "search the ANN index on int8-quantized vectors with float64 re-ranking (needs -index; each loaded index quantizes its own vectors)")
	readyFile := fs.String("ready-file", "", "write the bound address to this file once serving (for scripts; with -debug-addr, the debug address goes to <ready-file>.debug)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and /debug/vars on this separate address (disabled when empty; keep it private)")
	quiet := fs.Bool("quiet", false, "disable per-request logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bundle == "" {
		fs.Usage()
		return fmt.Errorf("-bundle is required")
	}
	if *quantize && *indexDir == "" {
		return fmt.Errorf("-quantize needs -index: only the ANN search path is quantized")
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	warn := func(msg string) { logger.Warn("bundle", slog.String("warning", msg)) }
	loadOpts := leva.LoadOptions{Warn: warn, MMap: *mmapFiles}
	// Hot reload re-reads the same directories, so a deployer can
	// publish a new bundle (and index) into them with leva's rename
	// protocol and SIGHUP the daemon without dropping a request.
	loadBundle := func() (*leva.Result, error) {
		return leva.LoadBundleOpts(*bundle, loadOpts)
	}
	var loadIndex func() (*ann.Index, error)
	if *indexDir != "" {
		indexOpts := ann.LoadOptions{Warn: warn, MMap: *mmapFiles}
		loadIndex = func() (*ann.Index, error) {
			ix, err := ann.LoadOpts(*indexDir, indexOpts)
			if err != nil || !*quantize {
				return ix, err
			}
			if err := ix.Quantize(nil); err != nil {
				_ = ix.Unmap()
				return nil, fmt.Errorf("quantize ANN index: %w", err)
			}
			return ix, nil
		}
	}
	res, ix, err := serve.LoadGeneration(loadBundle, loadIndex)
	if err != nil {
		return err
	}

	cfg := serve.Config{
		Addr:           *addr,
		MaxInFlight:    *maxInFlight,
		QueueLen:       *queueLen,
		QueueTimeout:   *queueTimeout,
		RequestTimeout: *reqTimeout,
		CacheSize:      *cacheSize,
		ReloadDirs:     []string{*bundle},
	}
	if *cacheSize <= 0 {
		cfg.CacheSize = -1
	}
	if *reqTimeout <= 0 {
		cfg.RequestTimeout = -1
	}
	if *queueLen <= 0 {
		cfg.QueueLen = -1
	}
	if !*quiet {
		cfg.Logger = logger
	}
	cfg.Loader = loadBundle
	if ix != nil {
		cfg.Index = ix
		// The index reloads from the same directory alongside the
		// bundle, so one SIGHUP swaps both atomically (or neither).
		cfg.IndexLoader = loadIndex
		cfg.ReloadDirs = append(cfg.ReloadDirs, *indexDir)
	}
	srv := serve.New(res, cfg)
	bound, err := srv.Listen()
	if err != nil {
		return err
	}
	annVectors := 0
	quantized := false
	if cfg.Index != nil {
		annVectors = cfg.Index.Len()
		quantized = cfg.Index.Quantized()
	}
	logger.Info("serving",
		slog.String("bundle", *bundle),
		slog.String("addr", bound.String()),
		slog.Int("vectors", res.Embedding.Len()),
		slog.Int("dim", res.Embedding.Dim),
		slog.Int("annVectors", annVectors),
		slog.Bool("quantized", quantized),
		slog.String("method", string(res.MethodUsed)),
	)

	// The debug listener is a second, separately bindable address (so
	// production deployments can keep it on loopback while /metrics is
	// scraped remotely) carrying the profiling endpoints and a JSON dump
	// of the server's metric registry.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		go func() { _ = http.Serve(dln, debugMux(srv)) }()
		logger.Info("debug endpoints", slog.String("addr", dln.Addr().String()))
		if *readyFile != "" {
			if err := writeReadyFile(*readyFile+".debug", dln.Addr().String()); err != nil {
				return err
			}
		}
	}
	if *readyFile != "" {
		if err := writeReadyFile(*readyFile, bound.String()); err != nil {
			return err
		}
	}

	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP triggers a zero-downtime reload of the bundle directory.
	// Reloads serialize inside the server, so a burst of signals runs
	// one at a time; a failed reload logs the reason and keeps the
	// current bundle serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				logger.Error("reload failed; keeping current bundle", slog.String("error", err.Error()))
			} else {
				logger.Info("reload complete", slog.String("bundle", *bundle))
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	select {
	case err := <-errc:
		// Listener failure before any shutdown request.
		return err
	case <-sigCtx.Done():
		logger.Info("shutdown: draining in-flight requests", slog.Duration("budget", *drainTimeout))
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logger.Info("shutdown: drained cleanly")
		return nil
	}
}

// debugMux carries the operator-only endpoints of -debug-addr: the
// standard pprof profile handlers and /debug/vars, a JSON rendering of
// every metric family the server's /metrics endpoint exposes (see
// docs/OBSERVABILITY.md).
func debugMux(srv *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(srv.Registry().Snapshot())
	})
	return mux
}

// writeReadyFile atomically publishes the bound address: readers polling
// the path never observe a partial write.
func writeReadyFile(path, addr string) error {
	tmp := filepath.Join(filepath.Dir(path), ".levad-ready.tmp")
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
