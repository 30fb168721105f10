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
// is immutable after load, so reads need no locking), an LRU cache of
// fully-featurized rows keyed by row content, and an optional
// micro-batcher that groups cache misses from concurrent requests into
// one parallel featurize pass.
//
// Stores are immutable snapshots: a hot reload builds a whole new store
// (fresh cache, fresh batcher) around the new bundle and swaps it in
// atomically, so one request only ever sees one bundle version. The
// refs counter retires a replaced store — its batcher shuts down when
// the last in-flight request using it finishes, never under one.
type store struct {
	res     *core.Result
	cache   *lruCache
	batcher *batcher
	metrics *metrics
	workers int

	// index is the optional ANN index behind /v1/neighbors. Like the
	// embedding it is immutable after load, so searches need no
	// locking; a hot reload swaps in a whole new store with the new
	// index, and pinned requests keep searching the old one.
	index *ann.Index
	// annCache memoizes token-keyed neighbor queries (raw-vector
	// queries are not cached: their keys would be unbounded). Nil when
	// the index is absent or caching is disabled.
	annCache *lruCache

	// guards carries the server's circuit breakers and chaos source —
	// shared across store generations so breaker history survives a hot
	// reload. Nil in direct store tests.
	guards *guards

	// owned lists the file mappings this store releases when it
	// retires. newStore seeds it with the store's own bundle, always
	// first, and its index; Unmap is a no-op for whichever of them was
	// read or built rather than mapped, and for a nil index. A reload that carries the index
	// forward moves the index's mappings to the successor store instead
	// (see reloadLocked).
	owned []mapping

	// gen is the bundle generation this store serves: 1 for the store
	// loaded at startup, +1 per successful reload.
	gen int64
	// refs counts the serving reference (held by the Server until this
	// store is swapped out or shut down) plus one per in-flight request
	// that captured this store. See Server.acquireStore.
	refs      atomic.Int64
	closeOnce sync.Once
}

// mapping is a file mapping a store can own: a bundle (*core.Result)
// or an index (*ann.Index) loaded with mmap. Unmap is idempotent.
type mapping interface{ Unmap() error }

func newStore(res *core.Result, ix *ann.Index, cfg Config, m *metrics, g *guards) *store {
	s := &store{res: res, index: ix, metrics: m, workers: cfg.Workers, guards: g, owned: []mapping{res, ix}}
	s.refs.Store(1) // the serving reference
	if cfg.CacheSize > 0 {
		s.cache = newLRU(cfg.CacheSize)
		m.setRowCache(cfg.CacheSize, s.cache.len)
	}
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
	if cfg.BatchWindow > 0 {
		s.batcher = newBatcher(cfg.BatchWindow, cfg.BatchMax, s.runBatch)
	}
	return s
}

// release drops one reference; the last drop stops the batcher's gather
// loop and returns every mapping the store owns to the kernel — a
// retired generation must not keep its pages resident for the life of
// the process.
// Idempotence of the close is guarded so the acquire/swap race (see
// Server.acquireStore) cannot close twice.
func (s *store) release() {
	if s.refs.Add(-1) <= 0 {
		s.closeOnce.Do(func() {
			if s.batcher != nil {
				s.batcher.close()
			}
			for _, m := range s.owned {
				_ = m.Unmap()
			}
		})
	}
}

// vector returns the embedding vector for an entity key (a token, or
// "table:rowIdx" for rows). The slice is shared and must not be
// mutated.
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
// columns are in the fitted order; out is filled by featurizeRows.
type rowJob struct {
	t        *dataset.Table
	table    string
	exclude  []string
	graphRow int
	mode     core.FeaturizationMode
	key      string
	out      []float64
}

// cacheKey renders a canonical identity for a row's featurization:
// table, mode, graph row, excluded columns, and every (column, value)
// pair in fitted column order. Two requests with the same key are
// guaranteed the same feature vector, so cached vectors can be shared.
func cacheKey(j *rowJob) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString(j.table)
	b.WriteByte(0x1e)
	b.WriteByte(byte('0' + j.mode))
	b.WriteByte(0x1e)
	b.WriteString(strconv.Itoa(j.graphRow))
	for _, e := range j.exclude {
		b.WriteByte(0x1e)
		b.WriteString(e)
	}
	for _, c := range j.t.Columns {
		b.WriteByte(0x1f)
		b.WriteString(c.Name)
		b.WriteByte(0x1e)
		b.WriteByte(byte('0' + c.Values[0].Kind))
		b.WriteString(c.Values[0].Text())
	}
	return b.String()
}

// cacheGate decides — once per request — whether the row cache may be
// used, routing the decision through the rowcache circuit breaker and
// chaos target. The in-memory LRU cannot fail on its own; the breaker
// exists so injected cache faults (and any future remote cache) brown
// out into cache bypass — every row recomputed, correctness kept —
// instead of failed requests.
func (s *store) cacheGate() bool {
	if s.cache == nil {
		return false
	}
	g := s.guards
	if g == nil || g.breakers[depRowCache] == nil {
		return true
	}
	done, err := g.breakers[depRowCache].Allow()
	if err != nil {
		s.metrics.depCalls.With(depRowCache, "open").Inc()
		s.metrics.degraded.With("featurize").Inc()
		return false
	}
	if d := g.chaos.Decide(depRowCache); d.Err {
		done(false)
		s.metrics.depCalls.With(depRowCache, "error").Inc()
		s.metrics.degraded.With("featurize").Inc()
		return false
	}
	done(true)
	s.metrics.depCalls.With(depRowCache, "ok").Inc()
	return true
}

// featurizeRows fills every job's out vector, serving from the cache
// where possible, and reports the number of cache hits. Returned
// vectors may be shared with the cache; callers must not mutate them.
func (s *store) featurizeRows(ctx context.Context, jobs []*rowJob) (int, error) {
	hits := 0
	misses := jobs
	useCache := s.cacheGate()
	if useCache {
		misses = misses[:0:0]
		for _, j := range jobs {
			if v, ok := s.cache.get(j.key); ok {
				j.out = v.([]float64)
				hits++
				continue
			}
			misses = append(misses, j)
		}
		s.metrics.cacheHits.Add(float64(hits))
		s.metrics.cacheMisses.Add(float64(len(misses)))
	}
	if len(misses) > 0 {
		var err error
		if s.batcher != nil {
			err = s.batcher.doAll(ctx, misses)
		} else {
			err = s.compute(ctx, misses)
		}
		if err != nil {
			return hits, err
		}
		if useCache {
			for _, j := range misses {
				s.cache.put(j.key, j.out)
			}
		}
	}
	s.metrics.rowsFeaturized.Add(float64(len(jobs)))
	return hits, nil
}

// compute featurizes jobs inline, fanning out across s.workers
// goroutines; each job writes only its own out slot.
func (s *store) compute(ctx context.Context, jobs []*rowJob) error {
	return parallel.ForError(len(jobs), s.workers, func(_ int, pr parallel.Range) error {
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
	if v, ok := s.annCache.get(key); ok {
		s.metrics.annCacheHits.Inc()
		return v.([]ann.Result), true, nil
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

// runBatch is the batcher's executor: one gathered batch, featurized in
// parallel, each job's error delivered individually.
func (s *store) runBatch(batch []*featJob) {
	s.metrics.batches.Inc()
	s.metrics.batchedRows.Add(float64(len(batch)))
	parallel.For(len(batch), s.workers, func(_ int, pr parallel.Range) {
		for i := pr.Lo; i < pr.Hi; i++ {
			fj := batch[i]
			j := fj.job
			j.out, fj.err = s.res.FeaturizeRow(j.t, j.table, j.exclude, 0, j.graphRow, j.mode)
			close(fj.done)
		}
	})
}
