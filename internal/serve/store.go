package serve

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// store is the read path between the HTTP handlers and the loaded
// embedding: concurrency-safe token→vector lookups (the embedding index
// is immutable after load, so reads need no locking) and per-request
// row featurization. Rows are not cached: composing one costs a few
// microseconds, and the embedding already is the compact form of every
// row a cache could hold.
//
// Stores are immutable snapshots: a hot reload builds a whole new store
// (fresh neighbor cache) around the new bundle and swaps it in
// atomically, so one request only ever sees one bundle version. The
// refs counter retires a replaced store — its mappings are released
// when the last in-flight request using it finishes, never under one.
type store struct {
	res     *core.Result
	metrics *metrics

	// index is the optional ANN index behind /v1/neighbors. Like the
	// embedding it is immutable after load, so searches need no
	// locking; a hot reload swaps in a whole new store with the new
	// index, and pinned requests keep searching the old one.
	index *ann.Index
	// annCache memoizes token-keyed neighbor queries (raw-vector
	// queries are not cached: their keys would be unbounded). Nil when
	// the index is absent or caching is disabled.
	annCache *lruCache

	// gen is the bundle generation this store serves: 1 for the store
	// loaded at startup, +1 per successful reload.
	gen int64
	// refs counts the serving reference (held by the Server until this
	// store is swapped out or shut down) plus one per in-flight request
	// that captured this store. See Server.acquireStore.
	refs      atomic.Int64
	closeOnce sync.Once
}

func newStore(res *core.Result, ix *ann.Index, cfg Config, m *metrics) *store {
	s := &store{res: res, index: ix, metrics: m}
	s.refs.Store(1) // the serving reference
	if ix != nil && cfg.CacheSize > 0 {
		s.annCache = newLRU(cfg.CacheSize)
	}
	if ix != nil {
		m.annIndexSize.Set(float64(ix.Len()))
	} else {
		m.annIndexSize.Set(0)
	}
	if ix != nil && ix.Quantized() {
		m.quantEnabled.Set(1)
		m.quantArenaBytes.Set(float64(ix.QuantBytes()))
	} else {
		m.quantEnabled.Set(0)
		m.quantArenaBytes.Set(0)
	}
	return s
}

// release drops one reference; the last drop returns the store's
// bundle and index mappings to the kernel — a retired generation must
// not keep its pages resident for the life of the process. Unmap is a
// no-op for whichever was read or built rather than mapped, and for a
// nil index.
// Idempotence of the close is guarded so the acquire/swap race (see
// Server.acquireStore) cannot close twice.
func (s *store) release() {
	if s.refs.Add(-1) <= 0 {
		s.closeOnce.Do(func() {
			_ = s.res.Unmap()
			_ = s.index.Unmap()
		})
	}
}

// vector returns the embedding vector for an entity key (a token, or
// "table:rowIdx" for rows): a fresh float64 copy of the stored float32
// values, which the caller owns.
func (s *store) vector(token string) ([]float64, bool) {
	return s.res.Embedding.Vector(token)
}

// columns returns the fitted column order for table, or nil if the
// bundle's tokenizer has never seen it.
func (s *store) columns(table string) []string {
	return s.res.Textifier.Columns(table)
}

// featureWidth is the response vector length under mode.
func (s *store) featureWidth(mode core.FeaturizationMode) int {
	return s.res.FeatureWidth(mode)
}

// rowJob is one row awaiting featurization. t is a one-row table whose
// columns are in the fitted order; out is filled by compute.
type rowJob struct {
	t        *dataset.Table
	table    string
	exclude  []string
	graphRow int
	mode     core.FeaturizationMode
	out      []float64
}

// compute featurizes jobs inline, fanning out across GOMAXPROCS
// goroutines; each job writes only its own out slot.
func (s *store) compute(ctx context.Context, jobs []*rowJob) error {
	err := parallel.ForError(len(jobs), 0, func(_ int, pr parallel.Range) error {
		for i := pr.Lo; i < pr.Hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			j := jobs[i]
			out, err := s.res.FeaturizeRow(j.t, j.table, j.exclude, 0, j.graphRow, j.mode)
			if err != nil {
				return err
			}
			j.out = out
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.metrics.rowsFeaturized.Add(float64(len(jobs)))
	return nil
}

// neighborsByName answers a token-keyed neighbor query through the
// per-store LRU: identical (token, k, ef) queries against one index
// generation share one search. The returned slice is shared with the
// cache; callers must not mutate it.
func (s *store) neighborsByName(token string, k, ef int) ([]ann.Result, bool, error) {
	if s.annCache == nil {
		res, err := s.index.SearchName(token, k, ef)
		return res, false, err
	}
	key := annCacheKey(token, k, ef)
	if res, ok := s.annCache.get(key); ok {
		s.metrics.annCacheHits.Inc()
		return res, true, nil
	}
	s.metrics.annCacheMisses.Inc()
	res, err := s.index.SearchName(token, k, ef)
	if err != nil {
		return nil, false, err
	}
	s.annCache.put(key, res)
	return res, false, nil
}

// annCacheKey renders the identity of a token-keyed neighbor query.
// The 0x1e separator cannot appear in a token drawn from the embedding
// vocabulary's printable keys, so distinct queries cannot collide.
func annCacheKey(token string, k, ef int) string {
	var b strings.Builder
	b.Grow(len(token) + 12)
	b.WriteString(token)
	b.WriteByte(0x1e)
	b.WriteString(strconv.Itoa(k))
	b.WriteByte(0x1e)
	b.WriteString(strconv.Itoa(ef))
	return b.String()
}
