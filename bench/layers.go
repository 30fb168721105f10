package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	leva "repro"
	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/textify"
)

// In-process sample sizes of the traced run.
const (
	replayRequests = 5000
	annQueries     = 500
	rowSamples     = 2000
	loadRepeats    = 3
)

// layers times calls into each module's public functions, from outside
// the program, on one workload's inputs and artifacts. Nothing here is
// part of the untraced measurement.
type layers struct {
	e     *env
	r     *record
	tr    *tracer
	csv   string
	cache string // the stage cache a cold `leva embed` populated
	// bundleDir is the workload's bundle; indexDir its served index, or
	// empty when levad runs without one.
	bundleDir, indexDir string
	// quantMMap mirrors `levad -mmap -quantize` for the in-process
	// server.
	quantMMap bool
	res       *core.Result
	base      *dataset.Table
	cols      []string
}

func newLayers(e *env, r *record, csv, cache, bundleDir, indexDir string, quantMMap bool) (*layers, error) {
	res, err := core.LoadBundle(bundleDir)
	if err != nil {
		return nil, err
	}
	base, cols, err := loadBase(csv, res)
	if err != nil {
		return nil, err
	}
	return &layers{e: e, r: r, tr: newTracer(), csv: csv, cache: cache,
		bundleDir: bundleDir, indexDir: indexDir, quantMMap: quantMMap,
		res: res, base: base, cols: cols}, nil
}

// measure runs every in-process measurement, replaying entries through
// the handler, and writes the trace file with client spans prepended.
func (l *layers) measure(entries []entry, client []span) error {
	dir := filepath.Join(l.e.dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	builtIndex, err := l.pipeline(dir)
	if err != nil {
		return err
	}
	indexDir := l.indexDir
	if indexDir == "" {
		indexDir = builtIndex
	}
	if err := l.ann(indexDir, entries); err != nil {
		return err
	}
	l.rows()
	if err := l.replay(entries); err != nil {
		return err
	}
	if err := os.MkdirAll(l.e.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(l.e.out, fmt.Sprintf("trace-%s-%d.jsonl", l.e.wl.Name, l.e.seed))
	if err := writeSpans(path, append(client, l.tr.spans...)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	printSelfTimes(l.tr.spans)
	return nil
}

// config is the pipeline configuration `leva embed -dim 64 -method mf`
// builds with.
func (l *layers) config() core.Config {
	cfg := leva.DefaultConfig()
	cfg.Dim = 64
	cfg.Method = embed.MethodMF
	cfg.Seed = l.e.seed
	cfg.Textify.BinCount = 50
	return cfg
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// medianTime runs fn n times, each inside a span, and returns the
// median duration in ms.
func (l *layers) medianTime(trace, name string, parent, n int, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		var err error
		d := l.tr.time(trace, name, parent, func() { err = fn() })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, ms(d))
	}
	return median(ds), nil
}

// pipeline times each stage of the offline build with no cache, the
// stage cache's Store and Load of the artifacts a cold build wrote, and
// saving and loading the deployable artifacts. It returns the directory
// of the index it built.
func (l *layers) pipeline(dir string) (string, error) {
	const trace = "pipeline"
	r, tr := l.r, l.tr
	root := tr.start(trace, "pipeline", 0)
	defer tr.end(root)
	p := tr.id(root)
	cfg := l.config()

	var db *dataset.Database
	var err error
	r.set("dataset.read_csv_ms", ms(tr.time(trace, "dataset.read_csv", p, func() { db, err = dataset.ReadCSVDir(l.csv) })), 1)
	if err != nil {
		return "", err
	}
	fpStage := &core.TextifyStage{DB: db, Opts: cfg.Textify, Workers: cfg.Workers}
	r.set("fingerprint.tables_ms", ms(tr.time(trace, "fingerprint.tables", p, func() { fpStage.TableFingerprints() })), 1)

	ts := &core.TextifyStage{DB: db, Opts: cfg.Textify, Workers: cfg.Workers}
	var tokenized []*textify.TokenizedTable
	r.set("textify.run_ms", ms(tr.time(trace, "textify.run", p, func() { _, tokenized, _, _, err = ts.Run() })), 1)
	if err != nil {
		return "", err
	}
	gs := &core.GraphStage{Tokenized: tokenized, Opts: cfg.Graph, Method: cfg.Method, Dim: cfg.Dim,
		MemoryBudgetBytes: cfg.MemoryBudgetBytes, WalkLength: cfg.RW.WalkLength, WalksPerNode: cfg.RW.WalksPerNode}
	var g *graph.Graph
	r.set("graph.run_ms", ms(tr.time(trace, "graph.run", p, func() { g, _, _, _, err = gs.Run() })), 1)
	if err != nil {
		return "", err
	}
	r.set("graph.nodes", float64(g.NumNodes()), 1)
	r.set("graph.edges", float64(g.NumEdges()), 1)
	es := &core.EmbedStage{Graph: g, Cfg: cfg}
	var emb *embed.Embedding
	r.set("embed.mf_ms", ms(tr.time(trace, "embed.mf", p, func() { emb, _, _, err = es.Run() })), 1)
	if err != nil {
		return "", err
	}
	as := &core.ANNStage{Embedding: emb, Opts: ann.Options{Seed: l.e.seed}}
	var ix *ann.Index
	r.set("ann.build_ms", ms(tr.time(trace, "ann.build", p, func() { ix, _, err = as.Run() })), 1)
	if err != nil {
		return "", err
	}

	var buf bytes.Buffer
	r.set("embed.write_tsv_ms", ms(tr.time(trace, "embed.write_tsv", p, func() { err = emb.WriteTSV(&buf) })), 1)
	if err != nil {
		return "", err
	}
	indexDir := filepath.Join(dir, "index")
	v, err := l.medianTime(trace, "ann.save", p, loadRepeats, func() error { return ix.Save(indexDir) })
	if err != nil {
		return "", err
	}
	r.set("ann.save_ms", v, loadRepeats)
	r.set("ann.index_bytes", fileSize(filepath.Join(indexDir, ann.IndexFileName)), 1)
	v, err = l.medianTime(trace, "core.save_bundle", p, loadRepeats, func() error { return l.res.SaveBundle(filepath.Join(dir, "bundle")) })
	if err != nil {
		return "", err
	}
	r.set("core.save_bundle_ms", v, loadRepeats)
	r.set("bundle.bytes", fileSize(filepath.Join(l.bundleDir, "bundle.bin")), 1)

	if err := l.cacheRoundTrip(trace, p, filepath.Join(dir, "cache")); err != nil {
		return "", err
	}

	v, err = l.medianTime(trace, "core.load_bundle", p, loadRepeats, func() error {
		_, err := core.LoadBundle(l.bundleDir)
		return err
	})
	if err != nil {
		return "", err
	}
	r.set("core.load_bundle_ms", v, loadRepeats)
	v, err = l.medianTime(trace, "core.load_bundle_mmap", p, loadRepeats, func() error {
		res, err := core.LoadBundleOpts(l.bundleDir, core.LoadOptions{MMap: true})
		if err != nil {
			return err
		}
		return res.Unmap()
	})
	if err != nil {
		return "", err
	}
	r.set("core.load_bundle_mmap_ms", v, loadRepeats)
	loadDir := l.indexDir
	if loadDir == "" {
		loadDir = indexDir
	}
	var loaded *ann.Index
	v, err = l.medianTime(trace, "ann.load", p, loadRepeats, func() error {
		loaded, err = ann.Load(loadDir)
		return err
	})
	if err != nil {
		return "", err
	}
	r.set("ann.load_ms", v, loadRepeats)
	r.set("ann.quantize_ms", ms(tr.time(trace, "ann.quantize", p, func() { err = loaded.Quantize(nil) })), 1)
	return indexDir, err
}

// cacheRoundTrip loads every sealed entry of the populated stage cache
// and stores it again into a fresh cache.
func (l *layers) cacheRoundTrip(trace string, parent int, fresh string) error {
	entries, err := filepath.Glob(filepath.Join(l.cache, "*", "*"))
	if err != nil {
		return err
	}
	src, dst := core.NewCache(l.cache), core.NewCache(fresh)
	type artifact struct {
		stage, fp string
		files     map[string][]byte
	}
	var arts []artifact
	load := l.tr.start(trace, "cache.load", parent)
	for _, e := range entries {
		stage, fp := filepath.Base(filepath.Dir(e)), filepath.Base(e)
		if files, ok := src.Load(stage, fp); ok {
			arts = append(arts, artifact{stage, fp, files})
		}
	}
	l.r.set("cache.load_ms", ms(l.tr.end(load)), len(arts))
	if len(arts) == 0 {
		return fmt.Errorf("stage cache %s holds no sealed entries", l.cache)
	}
	var storeErr error
	d := l.tr.time(trace, "cache.store", parent, func() {
		for _, a := range arts {
			if err := dst.Store(a.stage, a.fp, a.files); err != nil && storeErr == nil {
				storeErr = err
			}
		}
	})
	l.r.set("cache.store_ms", ms(d), len(arts))
	return storeErr
}

// ann times float, int8 and brute-force searches on the index in dir
// and their recall against the exact answer. Raw-vector queries come
// from the workload's pool when it has them.
func (l *layers) ann(dir string, entries []entry) error {
	const trace = "ann"
	var queries [][]float64
	for _, e := range entries {
		if e.kind == kindNeighborsVector && len(queries) < annQueries {
			queries = append(queries, e.vector)
		}
	}
	rng := rand.New(rand.NewSource(l.e.seed))
	names := l.res.Embedding.Names()
	for len(queries) < annQueries {
		queries = append(queries, noisyQuery(rng, l.res, names))
	}
	float, err := ann.Load(dir)
	if err != nil {
		return err
	}
	quant, err := ann.Load(dir)
	if err != nil {
		return err
	}
	if err := quant.Quantize(nil); err != nil {
		return err
	}
	root := l.tr.start(trace, "ann.queries", 0)
	defer l.tr.end(root)
	p := l.tr.id(root)
	var searchUs, int8Us, bruteUs, recall, recall8 []float64
	for _, q := range queries {
		var exact, got, got8 []ann.Result
		var e1, e2, e3 error
		bruteUs = append(bruteUs, us(l.tr.time(trace, "ann.brute", p, func() { exact, e1 = float.BruteForceVector(q, neighborsK) })))
		searchUs = append(searchUs, us(l.tr.time(trace, "ann.search", p, func() { got, e2 = float.SearchVector(q, neighborsK, 0) })))
		int8Us = append(int8Us, us(l.tr.time(trace, "ann.search_int8", p, func() { got8, e3 = quant.SearchVector(q, neighborsK, 0) })))
		if e1 != nil || e2 != nil || e3 != nil {
			return fmt.Errorf("ann queries: %v %v %v", e1, e2, e3)
		}
		recall = append(recall, overlap(items(got), exact))
		recall8 = append(recall8, overlap(items(got8), exact))
	}
	n := len(queries)
	l.r.set("ann.search_us", median(searchUs), n)
	l.r.set("ann.search_int8_us", median(int8Us), n)
	l.r.set("ann.brute_us", median(bruteUs), n)
	l.r.set("ann.recall_at_10_hnsw", mean(recall), n)
	l.r.set("ann.recall_at_10_int8", mean(recall8), n)
	return nil
}

func items(rs []ann.Result) []neighborItem {
	out := make([]neighborItem, len(rs))
	for i, r := range rs {
		out[i] = neighborItem{Token: r.Name, Score: r.Score}
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rows times the per-row featurize layers on Zipf-drawn base rows:
// tokenizing each cell, composing the value vector, the whole
// FeaturizeRow, and encoding 32-row responses.
func (l *layers) rows() {
	const trace = "rows"
	tr, res := l.tr, l.res
	root := tr.start(trace, "rows", 0)
	defer tr.end(root)
	p := tr.id(root)
	src := newRowSource(rand.New(rand.NewSource(l.e.seed)), l.base, l.cols)
	exclude := []string{targetColumn}
	mode := res.Config.Featurization
	var tok, comp, feat, enc []float64
	var batch [][]float64
	for i := 0; i < rowSamples; i++ {
		t := rowTable(baseTable, l.cols, src.row())
		var tokens []string
		tok = append(tok, us(tr.time(trace, "textify.tokenize_row", p, func() {
			for _, c := range t.Columns {
				if c.Name == targetColumn {
					continue
				}
				tt, _ := res.Textifier.TextifyValue(baseTable, c.Name, c.Values[0])
				tokens = append(tokens, tt...)
			}
		})))
		comp = append(comp, us(tr.time(trace, "embed.compose_row", p, func() { res.Embedding.MeanVector(tokens) })))
		var out []float64
		feat = append(feat, us(tr.time(trace, "core.featurize_row", p, func() {
			out, _ = res.FeaturizeRow(t, baseTable, exclude, 0, -1, mode)
		})))
		if batch = append(batch, out); len(batch) == batchRows {
			resp := featurizeResp{Table: baseTable, Rows: len(batch), Dim: len(out), Features: batch}
			enc = append(enc, us(tr.time(trace, "serve.encode_batch", p, func() { _ = json.NewEncoder(&bytes.Buffer{}).Encode(resp) })))
			batch = nil
		}
	}
	l.r.set("textify.tokenize_row_us", median(tok), len(tok))
	l.r.set("embed.compose_row_us", median(comp), len(comp))
	l.r.set("core.featurize_row_us", median(feat), len(feat))
	l.r.set("serve.encode_batch_us", median(enc), len(enc))
}

// replay sends the first requests of the workload's pool through an
// in-process Server (the daemon's handler chain, no socket) and, for
// each, times the handler and then the parts it is made of: decoding
// the body into a local mirror, computing each answer that was not a
// cache hit, and encoding the response. The handler's self time is
// what the parts do not explain: middleware, admission, breakers and
// the cache gate.
func (l *layers) replay(entries []entry) error {
	res := l.res
	cfg := serve.Config{}
	if l.indexDir != "" {
		if l.quantMMap {
			mres, err := core.LoadBundleOpts(l.bundleDir, core.LoadOptions{MMap: true})
			if err != nil {
				return err
			}
			defer mres.Unmap()
			res = mres
		}
		ix, err := ann.Load(l.indexDir)
		if err != nil {
			return err
		}
		if l.quantMMap {
			if err := ix.Quantize(nil); err != nil {
				return err
			}
		}
		cfg.Index = ix
	}
	h := serve.New(res, cfg).Handler()
	ix := cfg.Index
	mode := res.Config.Featurization
	n := min(replayRequests, len(entries))
	var handler, decode, encode, self []float64
	for i := 0; i < n; i++ {
		e := &entries[i]
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(e.encode(i).raw)))
		if err != nil {
			return err
		}
		req.RemoteAddr = "127.0.0.1:1"
		rec := httptest.NewRecorder()
		trace := "replay-" + strconv.Itoa(i)
		root := l.tr.start(trace, "replay.request", 0)
		p := l.tr.id(root)
		hd := l.tr.time(trace, "serve.handler", p, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			l.tr.end(root)
			return fmt.Errorf("in-process replay of request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		var dec, work, enc time.Duration
		switch e.kind {
		case kindFeaturize:
			var body featurizeBody
			dec = l.tr.time(trace, "serve.decode", p, func() { err = decodeStrict(e.body, &body) })
			var got featurizeResp
			if err == nil {
				err = json.Unmarshal(rec.Body.Bytes(), &got)
			}
			if err != nil {
				return err
			}
			cols := res.Textifier.Columns(body.Table)
			features := make([][]float64, len(body.Rows))
			var rowsTime time.Duration
			for j, row := range body.Rows {
				t := rowTable(body.Table, cols, row)
				rowsTime += l.tr.time(trace, "core.featurize_row", p, func() {
					features[j], _ = res.FeaturizeRow(t, body.Table, body.Exclude, 0, -1, mode)
				})
			}
			// Hits were served from the row cache; charge the handler
			// only for the rows it computed.
			work = rowsTime * time.Duration(len(body.Rows)-got.CacheHits) / time.Duration(len(body.Rows))
			out := featurizeResp{Table: body.Table, Rows: len(features), Dim: got.Dim, CacheHits: got.CacheHits, Features: features}
			enc = l.tr.time(trace, "serve.encode", p, func() { _ = json.NewEncoder(&bytes.Buffer{}).Encode(out) })
			if len(body.Rows) == 1 {
				encode = append(encode, us(enc))
			}
		case kindNeighborsVector, kindNeighborsToken:
			var got neighborsResp
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				return err
			}
			if e.kind == kindNeighborsVector {
				var body neighborsBody
				dec = l.tr.time(trace, "serve.decode", p, func() { err = decodeStrict(e.body, &body) })
				if err != nil {
					return err
				}
			}
			if !got.CacheHit {
				o := &oracle{res: res, ix: ix}
				work = l.tr.time(trace, "ann.search", p, func() { _, err = o.neighbors(e) })
				if err != nil {
					return err
				}
			}
			enc = l.tr.time(trace, "serve.encode", p, func() { _ = json.NewEncoder(&bytes.Buffer{}).Encode(got) })
			encode = append(encode, us(enc))
		case kindEmbedding:
			var got embeddingResp
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				return err
			}
			enc = l.tr.time(trace, "serve.encode", p, func() { _ = json.NewEncoder(&bytes.Buffer{}).Encode(got) })
			encode = append(encode, us(enc))
		}
		l.tr.end(root)
		handler = append(handler, us(hd))
		if dec > 0 {
			decode = append(decode, us(dec))
		}
		self = append(self, us(hd-dec-work-enc))
	}
	hs := sortedCopy(handler)
	p50, _ := percentile(hs, 0.5)
	p99, _ := percentile(hs, 0.99)
	l.r.set("serve.handler_p50_us", p50, n)
	l.r.set("serve.handler_p99_us", p99, n)
	l.r.set("serve.decode_us", median(decode), len(decode))
	l.r.set("serve.encode_us", median(encode), len(encode))
	l.r.set("serve.handler_self_us", median(self), n)
	return nil
}

// decodeStrict decodes like the handlers do: unknown fields rejected.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// printSelfTimes writes the traced layers' total self time to stderr,
// largest first.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(os.Stderr, "bench: self time by span (in-process layers)")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %12.3f ms\n", n, ms(self[n]))
	}
}
