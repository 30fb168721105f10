package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/resilience"
)

// ErrReloadDisabled reports a reload attempt on a Server configured
// without a bundle Loader.
var ErrReloadDisabled = errors.New("serve: hot reload disabled: no bundle loader configured")

// errServerClosed reports a reload attempt after Shutdown.
var errServerClosed = errors.New("serve: reload refused: server is shut down")

// Reload swaps the serving bundle with zero downtime: the candidate is
// loaded (manifest-verified by the loader, concurrently with the
// candidate index when an IndexLoader is configured; see
// LoadGeneration), validated against the running store — embedding
// dimension, feature width, and featurization mode must match, and a
// canary row must featurize cleanly — and only then atomically swapped
// in. In-flight requests keep the store they started with; new requests
// see the new store. Any failure leaves the current store serving,
// untouched, and the returned error says why.
//
// Reloads are serialized: concurrent calls (a double SIGHUP, an admin
// request racing a signal) run one after another, each against the
// then-current store. Every outcome and its duration is recorded in
// /metrics.
//
// Reload is itself a circuit-broken dependency: repeated candidate
// failures trip the "reload" breaker and further attempts fail fast
// (wrapping resilience.ErrOpen) until the cooling period admits a
// probe — an operator republishing a bad bundle in a retry loop gets
// one clear signal instead of a validation storm. A reload that does
// succeed resets the ANN breaker: that dependency was just replaced and
// validated, so its failure history is stale by construction.
func (s *Server) Reload() error {
	done, berr := s.breakers[depReload].Allow()
	if berr != nil {
		s.metrics.depCalls.With(depReload, "open").Inc()
		return fmt.Errorf("serve: reload refused (%d consecutive failures, retry in %s): %w",
			s.cfg.BreakerFailures, s.breakers[depReload].RetryAfter().Round(time.Second), berr)
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	err := s.reloadLocked()
	s.metrics.recordReload(time.Since(start), err)
	// Config states (reload disabled, server shut down) say nothing
	// about bundle health; only real candidate failures count.
	benign := errors.Is(err, ErrReloadDisabled) || errors.Is(err, errServerClosed)
	done(err == nil || benign)
	if err != nil {
		if benign {
			s.metrics.depCalls.With(depReload, "canceled").Inc()
		} else {
			s.metrics.depCalls.With(depReload, "error").Inc()
		}
		return err
	}
	s.metrics.depCalls.With(depReload, "ok").Inc()
	s.breakers[depANN].Reset()
	return nil
}

func (s *Server) reloadLocked() error {
	if s.closed {
		return errServerClosed
	}
	if s.cfg.Loader == nil {
		return ErrReloadDisabled
	}
	cur := s.st.Load()
	// The index reloads with the bundle when an IndexLoader is
	// configured; otherwise the current index (possibly nil) carries
	// forward. A candidate index that fails to load or validate rejects
	// the whole reload — serving a new embedding against a stale index
	// would silently return neighbors from the wrong vector space.
	res, cand, err := LoadGeneration(s.cfg.Loader, s.cfg.IndexLoader)
	if err == nil {
		err = validateCandidate(cur.res, res)
		if err == nil && s.cfg.IndexLoader != nil {
			err = validateIndex(res, cand)
		}
		if err != nil {
			// A rejected candidate's mappings must not leak.
			_ = res.Unmap()
			_ = cand.Unmap()
		}
	}
	if err != nil {
		return fmt.Errorf("serve: reload rejected, still serving generation %d: %w", cur.gen, err)
	}
	ix := cur.index
	if s.cfg.IndexLoader != nil {
		ix = cand
	}
	next := newStore(res, ix, s.cfg, s.metrics)
	next.gen = cur.gen + 1
	// A carried index must outlive the store that loaded it: its own
	// mapping, and the retired bundles it reads vectors out of, move to
	// the new store, which releases them when it retires in turn. That
	// is everything cur owns but its own bundle (owned[0]) — plus that
	// bundle too when the index aliases it (an in-process build over a
	// mapped arena, or a quant section adopted zero-copy).
	if s.cfg.IndexLoader == nil && ix != nil {
		next.owned = append(next.owned[:1], cur.owned[1:]...)
		cur.owned = cur.owned[:1]
		if cur.res.Mapped() && ix.SharesStorage(cur.res.Embedding, cur.res.Quant) {
			next.owned = append(next.owned, cur.res)
			cur.owned = nil
		}
	}
	s.st.Store(next)
	s.metrics.generation.Set(float64(next.gen))
	// Drop the serving reference of the replaced store; it retires once
	// the last in-flight request using it finishes.
	cur.release()
	return nil
}

// LoadGeneration loads one serving generation: the bundle and, when
// loadIndex is non-nil, the ANN index. The two loads run concurrently,
// so the two file reads (or mappings) and SHA-256 checks overlap
// instead of queuing. levad calls it at startup and reloadLocked on
// every reload. When either load fails, whatever the other produced is
// unmapped and the error names each side that failed (errors.Is sees
// every cause); validating the pair against each other is the caller's
// job.
func LoadGeneration(loadBundle func() (*core.Result, error), loadIndex func() (*ann.Index, error)) (*core.Result, *ann.Index, error) {
	var (
		ix     *ann.Index
		ixErr  error
		ixDone = make(chan struct{})
	)
	if loadIndex != nil {
		go func() {
			defer close(ixDone)
			ix, ixErr = loadIndex()
		}()
	} else {
		close(ixDone)
	}
	res, resErr := loadBundle()
	<-ixDone
	if resErr == nil && ixErr == nil {
		return res, ix, nil
	}
	var errs []error
	if resErr != nil {
		errs = append(errs, fmt.Errorf("load bundle: %w", resErr))
	} else {
		_ = res.Unmap()
	}
	if ixErr != nil {
		errs = append(errs, fmt.Errorf("load ANN index: %w", ixErr))
	} else {
		_ = ix.Unmap()
	}
	return nil, nil, errors.Join(errs...)
}

// validateCandidate checks a candidate bundle against the serving one.
// Downstream models were trained on feature vectors of a fixed shape,
// so a hot swap must preserve that shape exactly; a re-fit with a
// different dimension is a deliberate redeploy, not a reload.
func validateCandidate(cur, cand *core.Result) error {
	if cand.Embedding == nil || cand.Embedding.Len() == 0 {
		return errors.New("candidate bundle has an empty embedding")
	}
	if cand.Embedding.Dim != cur.Embedding.Dim {
		return fmt.Errorf("candidate embedding dim %d != serving dim %d", cand.Embedding.Dim, cur.Embedding.Dim)
	}
	if cand.Config.Featurization != cur.Config.Featurization {
		return fmt.Errorf("candidate featurization mode %d != serving mode %d",
			cand.Config.Featurization, cur.Config.Featurization)
	}
	curW := cur.FeatureWidth(cur.Config.Featurization)
	candW := cand.FeatureWidth(cand.Config.Featurization)
	if curW != candW {
		return fmt.Errorf("candidate feature width %d != serving width %d (downstream models would break)", candW, curW)
	}
	return canaryProbe(cand)
}

// canaryProbe featurizes one synthetic row through the candidate bundle
// — every fitted column of its first table, all nulls — so a bundle
// that loads but cannot featurize (corrupt tokenizer state, broken
// fallback config) is rejected before it ever sees traffic.
func canaryProbe(cand *core.Result) error {
	tables := cand.Textifier.Tables()
	if len(tables) == 0 {
		return errors.New("canary probe: candidate tokenizer knows no tables")
	}
	table := tables[0]
	cols := cand.Textifier.Columns(table)
	if len(cols) == 0 {
		return fmt.Errorf("canary probe: candidate table %q has no fitted columns", table)
	}
	t := &dataset.Table{Name: table}
	for _, c := range cols {
		t.Columns = append(t.Columns, &dataset.Column{Name: c, Values: []dataset.Value{dataset.Null()}})
	}
	mode := cand.Config.Featurization
	out, err := cand.FeaturizeRow(t, table, nil, 0, -1, mode)
	if err != nil {
		return fmt.Errorf("canary probe: featurize one row of %q: %w", table, err)
	}
	if want := cand.FeatureWidth(mode); len(out) != want {
		return fmt.Errorf("canary probe: got %d features, want %d", len(out), want)
	}
	return nil
}

// validateIndex checks a candidate ANN index against the bundle it
// will serve with: the dimensions must agree, every probed index entry
// must name an entity the embedding actually holds, and a canary
// search must answer — an index built from a different embedding (or a
// corrupt one that decoded anyway) is rejected before the swap.
func validateIndex(cand *core.Result, ix *ann.Index) error {
	if ix == nil || ix.Len() == 0 {
		return errors.New("candidate ANN index is empty")
	}
	if ix.Dim() != cand.Embedding.Dim {
		return fmt.Errorf("candidate ANN index dim %d != candidate embedding dim %d", ix.Dim(), cand.Embedding.Dim)
	}
	names := ix.Names()
	for _, probe := range []int{0, len(names) / 2, len(names) - 1} {
		if _, ok := cand.Embedding.Vector(names[probe]); !ok {
			return fmt.Errorf("candidate ANN index entry %q is not in the candidate embedding (index built from a different bundle?)", names[probe])
		}
	}
	if _, err := ix.SearchName(names[0], 1, 0); err != nil {
		return fmt.Errorf("candidate ANN index canary search: %w", err)
	}
	return nil
}

// stageProvenance summarizes which pipeline stages the build behind res
// actually recomputed, from the stage-cache provenance that version-3
// bundles carry (cached / partial / rebuilt per stage). Bundles saved
// before provenance existed report every stage as "unknown".
func stageProvenance(res *core.Result) map[string]string {
	c := res.Timings.Cache
	if c.Textify == "" && c.Graph == "" && c.Embed == "" {
		return map[string]string{"textify": "unknown", "graph": "unknown", "embed": "unknown"}
	}
	return map[string]string{
		"textify": string(c.Textify),
		"graph":   string(c.Graph),
		"embed":   string(c.Embed),
	}
}

// handleReload is POST /admin/reload: a synchronous reload with the
// outcome in the response. 200 with the new generation on success; 503
// when reload is not configured; 500 with the reason when the candidate
// was rejected (the previous bundle keeps serving either way). The
// "stages" field reports which pipeline stages the refreshed bundle's
// build recomputed versus served from its stage cache.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if err := s.Reload(); err != nil {
		if errors.Is(err, resilience.ErrOpen) {
			retryAfterHeader(w, s.breakers[depReload].RetryAfter())
			writeErrorReason(w, http.StatusServiceUnavailable, "breaker_open", "%v", err)
			return
		}
		status := http.StatusInternalServerError
		if errors.Is(err, ErrReloadDisabled) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	st := s.st.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "reloaded",
		"generation": st.gen,
		"durationMs": float64(time.Since(start)) / 1e6,
		"stages":     stageProvenance(st.res),
	})
}
