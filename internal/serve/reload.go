package serve

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/durable"
)

// ErrReloadDisabled reports a reload attempt on a Server configured
// without a bundle Loader, or with an Index but no IndexLoader.
var ErrReloadDisabled = errors.New("serve: hot reload disabled")

// errServerClosed reports a reload attempt after Shutdown.
var errServerClosed = errors.New("serve: reload refused: server is shut down")

// Reload swaps the serving bundle with zero downtime: the candidate
// generation is loaded and its index checked against its bundle (see
// LoadGeneration), the bundle is validated against the running store —
// embedding dimension, feature width, and featurization mode must
// match, and a canary row must featurize cleanly — and only then the
// pair is atomically swapped in. In-flight requests keep the store
// they started with; new requests see the new store. Any failure
// leaves the current store serving, untouched, and the returned error
// says why.
//
// Reloads are serialized: concurrent calls (a double SIGHUP, an admin
// request racing a signal) run one after another, each against the
// then-current store. Every outcome and its duration is recorded in
// /metrics.
//
// A candidate that has not changed since it was last rejected is
// refused without loading it (see Config.ReloadDirs), so a reload loop
// on a broken bundle costs a few stat calls per attempt instead of a
// full read and hash.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	err := s.reloadLocked()
	s.metrics.recordReload(time.Since(start), err)
	return err
}

// rejectedCandidate is the memo of the last rejected reload: the stamps
// of Config.ReloadDirs taken before it loaded, and why it was rejected.
type rejectedCandidate struct {
	stamps []durable.DirStamp
	err    error
}

func (s *Server) reloadLocked() error {
	if s.closed {
		return errServerClosed
	}
	if s.cfg.Loader == nil {
		return fmt.Errorf("%w: no bundle loader configured", ErrReloadDisabled)
	}
	if s.cfg.Index != nil && s.cfg.IndexLoader == nil {
		return fmt.Errorf("%w: the server has an ANN index but no index loader", ErrReloadDisabled)
	}
	cur := s.st.Load()
	// A dir that cannot be stamped (no manifest, a listed file missing,
	// a publish caught mid-recovery) clears the memo and loads as
	// usual, so the loaders' recovery and named errors still run.
	stamps, err := stampDirs(s.cfg.ReloadDirs)
	if err != nil {
		s.rejected = nil
	} else if s.rejected != nil && slices.EqualFunc(stamps, s.rejected.stamps, durable.DirStamp.Equal) {
		return fmt.Errorf("serve: reload rejected, still serving generation %d: candidate unchanged since its rejection: %w",
			cur.gen, s.rejected.err)
	}
	res, ix, err := LoadGeneration(s.cfg.Loader, s.cfg.IndexLoader)
	if err == nil {
		if err = validateCandidate(cur.res, res); err != nil {
			// A rejected candidate's mappings must not leak.
			_ = res.Unmap()
			_ = ix.Unmap()
		}
	}
	if err != nil {
		if len(stamps) > 0 {
			s.rejected = &rejectedCandidate{stamps: stamps, err: err}
		}
		return fmt.Errorf("serve: reload rejected, still serving generation %d: %w", cur.gen, err)
	}
	s.rejected = nil
	next := newStore(res, ix, s.cfg, s.metrics)
	next.gen = cur.gen + 1
	s.st.Store(next)
	s.metrics.generation.Set(float64(next.gen))
	// Drop the serving reference of the replaced store; it retires once
	// the last in-flight request using it finishes.
	cur.release()
	return nil
}

// stampDirs stamps each of dirs (see durable.Stamp).
func stampDirs(dirs []string) ([]durable.DirStamp, error) {
	stamps := make([]durable.DirStamp, len(dirs))
	for i, dir := range dirs {
		st, err := durable.Stamp(dir)
		if err != nil {
			return nil, err
		}
		stamps[i] = st
	}
	return stamps, nil
}

// LoadGeneration loads one serving generation: the bundle and, when
// loadIndex is non-nil, the ANN index, which must have been built from
// that bundle's embedding (see validateIndex). The two loads run
// concurrently, so the two file reads (or mappings) and SHA-256 checks
// overlap instead of queuing. levad calls it at startup and
// reloadLocked on every reload, so both check a pair the same way.
// When either load fails, whatever the other produced is unmapped and
// the error names each side that failed (errors.Is sees every cause);
// when the pair does not match, both are unmapped.
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
		if loadIndex == nil {
			return res, nil, nil
		}
		if err := validateIndex(res, ix); err != nil {
			_ = res.Unmap()
			_ = ix.Unmap()
			return nil, nil, err
		}
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

// validateIndex checks an ANN index against the bundle it will serve
// with: the dimensions must agree, every probed index entry must name
// an entity the embedding actually holds, and a canary search must
// answer — an index built from a different embedding (or a corrupt one
// that decoded anyway) is rejected before it serves.
func validateIndex(res *core.Result, ix *ann.Index) error {
	if ix == nil || ix.Len() == 0 {
		return errors.New("ANN index is empty")
	}
	if ix.Dim() != res.Embedding.Dim {
		return fmt.Errorf("ANN index dim %d != bundle embedding dim %d (rebuild the index with `leva embed -index`)", ix.Dim(), res.Embedding.Dim)
	}
	names := ix.Names()
	for _, probe := range []int{0, len(names) / 2, len(names) - 1} {
		if !res.Embedding.Has(names[probe]) {
			return fmt.Errorf("ANN index entry %q is not in the bundle's embedding (index built from a different bundle?)", names[probe])
		}
	}
	if _, err := ix.SearchName(names[0], 1, 0); err != nil {
		return fmt.Errorf("ANN index canary search: %w", err)
	}
	return nil
}

// stageProvenance summarizes which pipeline stages the build behind res
// actually recomputed, from the stage-cache provenance bundles carry
// (cached / partial / rebuilt per stage). A Result with no recorded
// outcomes — a bundle.bin without a provenance section — reports every
// stage as "unknown".
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
// was rejected or the server is shutting down (the previous bundle
// keeps serving either way). The "stages" field reports which pipeline
// stages the refreshed bundle's build recomputed versus served from its
// stage cache.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if err := s.Reload(); err != nil {
		status, reason := http.StatusInternalServerError, "reload_rejected"
		switch {
		case errors.Is(err, ErrReloadDisabled):
			status, reason = http.StatusServiceUnavailable, "reload_disabled"
		case errors.Is(err, errServerClosed):
			reason = "canceled"
		}
		writeErrorReason(w, status, reason, "%v", err)
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
