package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Load-model constants (see README.md).
const (
	maxRPSSteps   = 5
	maxRPSLimitMs = 5.0
	postRunChecks = 64
)

// servingRun is one serving workload's prepared state: the daemon's
// flags, the pre-encoded request pool with its decoded form, and the
// oracles a served answer must equal.
type servingRun struct {
	e         *env
	r         *record
	levadArgs []string
	entries   []entry
	// oracles are the bundle generations a response may come from;
	// only mixed-reload has two.
	oracles []*oracle
	// mixed holds the reload state of mixed-reload.
	mixed *mixedState
	// The traced run's in-process inputs.
	csv, cache, bundleDir, indexDir string
}

// mixedState is what mixed-reload swaps: a live symlink alternating
// between two prebuilt generations, data seeds s and s+1000.
type mixedState struct {
	dir  string
	gens []string
}

// phases returns the serving schedule for a run of secs seconds.
func phases(wl workloadDef, secs float64) (warm, lo, hi phase, step time.Duration) {
	d := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	warm = phase{name: "warmup", rate: wl.RateLo, dur: d(max(secs/4, 0.25))}
	lo = phase{name: "rate_lo", rate: wl.RateLo, dur: d(secs)}
	hi = phase{name: "rate_hi", rate: wl.RateHi, dur: d(secs)}
	step = d(max(secs*0.3, 0.25))
	return warm, lo, hi, step
}

// loadBase reads the base table and the fitted column order.
func loadBase(csv string, res *core.Result) (*dataset.Table, []string, error) {
	db, err := dataset.ReadCSVDir(csv)
	if err != nil {
		return nil, nil, err
	}
	t := db.Table(baseTable)
	if t == nil {
		return nil, nil, fmt.Errorf("%s has no %s table", csv, baseTable)
	}
	return t, res.Textifier.Columns(baseTable), nil
}

// prepare generates inputs and builds the bundle (and index) cold,
// recording the build time and artifact size, and loads the result for
// the oracle.
func (e *env) prepare(dir string, seed int64, index bool) (csv string, coldS, artMiB float64, res *core.Result, ix *ann.Index, err error) {
	csv = filepath.Join(dir, "csv")
	if _, err = e.generate(datasetName, seed, csv); err != nil {
		return
	}
	cold, err := e.coldEmbed(csv, filepath.Join(dir, "cache"), dir, seed, index)
	if err != nil {
		return
	}
	if artMiB, err = artifactMiB(dir); err != nil {
		return
	}
	if res, err = core.LoadBundle(filepath.Join(dir, "bundle")); err != nil {
		return
	}
	if index {
		ix, err = ann.Load(filepath.Join(dir, "index"))
	}
	return csv, cold.wall.Seconds(), artMiB, res, ix, err
}

func runFeaturize(e *env, r *record) error {
	dir := filepath.Join(e.dir, "gen")
	csv, coldS, art, res, _, err := e.prepare(dir, e.seed, false)
	if err != nil {
		return err
	}
	r.set("embed_cold_s", coldS, 1)
	r.set("artifact_mb", art, 1)
	base, cols, err := loadBase(csv, res)
	if err != nil {
		return err
	}
	s := &servingRun{e: e, r: r,
		levadArgs: []string{"-bundle", filepath.Join(dir, "bundle")},
		entries:   featurizePool(e.seed, base, cols),
		oracles:   []*oracle{{res: res}},
		csv:       csv, cache: filepath.Join(dir, "cache"), bundleDir: filepath.Join(dir, "bundle"),
	}
	return s.run()
}

func runNeighbors(e *env, r *record) error {
	dir := filepath.Join(e.dir, "gen")
	csv, coldS, art, res, ix, err := e.prepare(dir, e.seed, true)
	if err != nil {
		return err
	}
	r.set("embed_cold_s", coldS, 1)
	r.set("artifact_mb", art, 1)
	s := &servingRun{e: e, r: r,
		levadArgs: []string{"-bundle", filepath.Join(dir, "bundle"), "-index", filepath.Join(dir, "index")},
		entries:   neighborsPool(e.seed, res),
		oracles:   []*oracle{{res: res, ix: ix}},
		csv:       csv, cache: filepath.Join(dir, "cache"),
		bundleDir: filepath.Join(dir, "bundle"), indexDir: filepath.Join(dir, "index"),
	}
	return s.run()
}

func runMixed(e *env, r *record) error {
	m := &mixedState{dir: e.dir, gens: []string{"gen-a", "gen-b"}}
	s := &servingRun{e: e, r: r, mixed: m}
	var cold, art []float64
	var csvA string
	for k, g := range m.gens {
		csv, coldS, artMiB, res, ix, err := e.prepare(filepath.Join(e.dir, g), e.seed+int64(1000*k), true)
		if err != nil {
			return err
		}
		// levad -quantize serves neighbors from an int8 copy of each
		// generation's index; the oracle quantizes the same way.
		if err := ix.Quantize(nil); err != nil {
			return err
		}
		if k == 0 {
			csvA = csv
		}
		cold = append(cold, coldS)
		art = append(art, artMiB)
		s.oracles = append(s.oracles, &oracle{res: res, ix: ix})
	}
	r.set("embed_cold_s", median(cold), len(cold))
	r.set("artifact_mb", median(art), len(art))
	if err := m.point(0); err != nil {
		return err
	}
	base, cols, err := loadBase(csvA, s.oracles[0].res)
	if err != nil {
		return err
	}
	s.entries = mixedPool(e.seed, base, cols, commonTokens(s.oracles[0].res, s.oracles[1].res))
	live := filepath.Join(e.dir, "live")
	s.levadArgs = []string{"-bundle", filepath.Join(live, "bundle"), "-index", filepath.Join(live, "index"), "-mmap", "-quantize"}
	s.csv, s.cache = csvA, filepath.Join(e.dir, m.gens[0], "cache")
	s.bundleDir, s.indexDir = filepath.Join(e.dir, m.gens[0], "bundle"), filepath.Join(e.dir, m.gens[0], "index")
	return s.run()
}

// point atomically swaps the live symlink to generation k.
func (m *mixedState) point(k int) error {
	tmp := filepath.Join(m.dir, "live.tmp")
	_ = os.Remove(tmp)
	if err := os.Symlink(m.gens[k], tmp); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(m.dir, "live"))
}

// run starts levad, drives the phases, checks the oracles and records
// the metrics; with tracing it also measures the layers.
func (s *servingRun) run() error {
	e, r := s.e, s.r
	pool := encodePool(s.entries)

	// Set-up: levad exec to its first /healthz 200, setupRuns times; the
	// last daemon serves the run.
	var starts []float64
	var d *levad
	for i := 0; i < setupRuns; i++ {
		l, took, err := startLevad(e.bins.levad, filepath.Join(e.dir, fmt.Sprintf("levad-%d.log", i)), s.levadArgs)
		if err != nil {
			return err
		}
		starts = append(starts, took.Seconds())
		if i < setupRuns-1 {
			if err := l.stop(); err != nil {
				return err
			}
			continue
		}
		d = l
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()
	r.set("setup_s", median(starts), len(starts))

	g := newGenerator(d.addr, runtime.NumCPU())
	defer g.close()
	st := &stream{pool: pool}
	warmPh, loPh, hiPh, step := phases(e.wl, e.seconds)

	var rl *reloader
	if s.mixed != nil {
		every := time.Duration(min(4, e.seconds/2) * float64(time.Second))
		rl = startReloader(d, s.mixed, every, e.trace)
	}
	fixed := []*phaseResult{g.run(warmPh, st)}
	lo := g.run(loPh, st)
	fixed = append(fixed, lo)

	var hi, traced *phaseResult
	var steps []*phaseResult
	var before, after scrape
	maxRPS := 0.0
	if e.trace {
		hi = g.run(hiPh, st)
		fixed = append(fixed, hi)
		maxRPS = bisectMaxRPS(e.wl.MaxLo, e.wl.MaxHi, maxRPSSteps, func(rate float64) bool {
			p := g.run(phase{name: fmt.Sprintf("max_rps@%.0f", rate), rate: rate, dur: step}, st)
			p99, _ := p.latP(0.99)
			ok := p.failed == 0 && p.valid() && p99 <= maxRPSLimitMs
			fmt.Fprintf(os.Stderr, "bench: max_rps step %.0f req/s: p99 %.3f ms, %d failed, valid %v -> pass %v\n",
				rate, p99, p.failed, p.valid(), ok)
			steps = append(steps, p)
			return ok
		})
		var err error
		if before, err = d.scrape(); err != nil {
			return err
		}
		traced = g.run(phase{name: "rate_lo_traced", rate: loPh.rate, dur: loPh.dur, trace: true}, st)
		fixed = append(fixed, traced)
		if after, err = d.scrape(); err != nil {
			return err
		}
	}
	if rl != nil {
		rl.stop()
		r.Ops.Attempted += rl.ok + rl.failed
		r.Ops.Failed += rl.failed
		r.check("reloads_succeeded", rl.failed == 0)
		for _, msg := range rl.errs {
			r.note("%s", msg)
		}
	}

	var recalls []float64
	for _, p := range fixed {
		r.phase(p)
		r.Ops.Attempted += p.n
		r.Ops.Failed += p.failed
		if p.failed > 0 {
			r.note("phase %s: %d of %d requests failed:%s", p.name, p.failed, p.n, p.failures())
		}
		for _, smp := range p.samples {
			if smp.body == nil || smp.status != 200 {
				continue
			}
			o, err := s.match(&s.entries[smp.id], smp.body)
			if err != nil {
				r.Ops.Failed++
				r.check("served_equals_oracle", false)
				r.note("phase %s request %d: %v", p.name, smp.id, err)
				continue
			}
			if e.trace && s.entries[smp.id].kind != kindFeaturize && s.entries[smp.id].kind != kindEmbedding {
				rec, err := o.recall(&s.entries[smp.id], smp.body)
				if err != nil {
					return err
				}
				recalls = append(recalls, rec)
			}
		}
	}
	r.check("served_equals_oracle", true)
	// The max_rps steps overload the server on purpose: their failures
	// are not counted, and they are listed after the fixed-rate phases.
	for _, p := range steps {
		r.phase(p)
	}
	if s.mixed != nil {
		if err := s.postRun(d, rl, pool); err != nil {
			return err
		}
	}

	p50, _ := lo.latP(0.5)
	p99, windows := lo.windowedP99()
	r.set("lat_p50_ms", p50, lo.n)
	r.set("lat_p99_ms", p99, lo.n)
	if windows == 0 {
		r.note("lat_p99_ms: rate_lo sent fewer than %d requests, so its p99 has under ten samples beyond it", windowSize)
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, 1)

	if !e.trace {
		return nil
	}
	hp99, _ := hi.windowedP99()
	r.set("lat_p99_hi_ms", hp99, hi.n)
	r.set("max_rps", maxRPS, maxRPSSteps)
	r.set("recall_at_10", mean(recalls), len(recalls))
	late, _ := percentile(sortedCopy(lo.late), 0.99)
	wait, _ := percentile(sortedCopy(lo.connWait), 0.99)
	r.set("bench.gen_late_p99_us", late, len(lo.late))
	r.set("bench.conn_wait_p99_us", wait, len(lo.connWait))
	tp50, _ := traced.latP(0.5)
	r.set("bench.trace_overhead_pct", 100*(tp50-p50)/p50, traced.n)
	s.scraped(before, after, traced, rl)
	if err := d.stop(); err != nil {
		return err
	}
	stopped = true

	l, err := newLayers(e, r, s.csv, s.cache, s.bundleDir, s.indexDir, s.mixed != nil)
	if err != nil {
		return err
	}
	if err := l.measure(s.entries, traced.spans); err != nil {
		return err
	}
	r.set("http.transport_us", median(lo.service)-r.Metrics["serve.handler_p50_us"], len(lo.service))
	return nil
}

// match returns the oracle whose answer the response equals.
func (s *servingRun) match(e *entry, body []byte) (*oracle, error) {
	var err error
	for _, o := range s.oracles {
		if err = o.check(e, body); err == nil {
			return o, nil
		}
	}
	return nil, err
}

// postRun checks mixed-reload's end state: the generation counts every
// reload, and answers now come from the generation the live link names.
func (s *servingRun) postRun(d *levad, rl *reloader, pool []request) error {
	r := s.r
	var health struct {
		Generation int `json:"generation"`
	}
	if err := d.getJSON("/healthz", &health); err != nil {
		return err
	}
	r.check("generation_counts_reloads", health.Generation == 1+rl.ok)
	if health.Generation != 1+rl.ok {
		r.note("healthz generation %d after %d reloads", health.Generation, rl.ok)
	}
	final := s.oracles[rl.live]
	c := &httpConn{addr: d.addr}
	defer c.close()
	for i := 0; i < postRunChecks; i++ {
		status, body, err := c.do(pool[i].raw, true)
		r.Ops.Attempted++
		if err == nil && status == 200 {
			err = final.check(&s.entries[i], body)
		} else if err == nil {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			r.Ops.Failed++
			r.check("post_run_matches_final_generation", false)
			r.note("post-run request %d: %v", i, err)
		}
	}
	r.check("post_run_matches_final_generation", true)
	return nil
}

// scraped derives the per-layer numbers levad itself counts, from the
// /metrics scrapes around the traced phase.
func (s *servingRun) scraped(before, after scrape, p *phaseResult, rl *reloader) {
	r := s.r
	ratio := func(hits, misses string) (float64, int) {
		h, m := delta(before, after, hits, nil), delta(before, after, misses, nil)
		if h+m == 0 {
			return 0, 0
		}
		return h / (h + m), int(h + m)
	}
	v, n := ratio("leva_rowcache_hits_total", "leva_rowcache_misses_total")
	r.set("serve.rowcache_hit_ratio", v, n)
	v, n = ratio("leva_ann_cache_hits_total", "leva_ann_cache_misses_total")
	r.set("serve.ann_cache_hit_ratio", v, n)
	r.set("go.gc_per_1k_req", delta(before, after, "leva_go_gc_cycles_total", nil)/(float64(p.n)/1000), p.n)
	r.set("go.heap_alloc_mb", after.sum("leva_go_heap_alloc_bytes", nil)/(1<<20), 1)
	queries := int(delta(before, after, "leva_ann_queries_total", nil))
	q50 := histQuantile(before, after, "leva_ann_query_seconds", nil, 0.5)
	r.set("ann.server_query_p50_us", q50*1e6, queries)
	quant := delta(before, after, "leva_quant_queries_total", nil)
	rerank := 0.0
	if quant > 0 {
		rerank = delta(before, after, "leva_quant_reranked_total", nil) / quant
	}
	r.set("ann.quant_rerank_per_query", rerank, int(quant))
	r.set("resilience.shed_total", delta(before, after, "leva_shed_total", nil), p.n)
	r.set("resilience.degraded_total", delta(before, after, "leva_resilience_degraded_total", nil), p.n)
	if rl != nil {
		r.set("reload_p50_ms", median(rl.lat), len(rl.lat))
		r.set("serve.reload_server_ms", median(rl.serverMs), len(rl.serverMs))
	}
}

// reloader swaps mixed-reload's live link and POSTs /admin/reload on a
// fixed period, on its own connection.
type reloader struct {
	stopc, done chan struct{}
	// live is the generation levad serves after the last successful
	// reload. Written by the reloader goroutine; read after stop.
	live       int
	ok, failed int
	lat        []float64 // client-observed ms
	serverMs   []float64 // leva_reload_last_duration_seconds after each reload
	errs       []string
}

func startReloader(d *levad, m *mixedState, every time.Duration, scrapeEach bool) *reloader {
	rl := &reloader{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rl.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-rl.stopc:
				return
			case <-t.C:
			}
			next := 1 - rl.live
			if err := m.point(next); err != nil {
				rl.fail("swap live link: %v", err)
				continue
			}
			start := time.Now()
			resp, err := ctl.Post(d.url("/admin/reload"), "application/json", nil)
			if err != nil {
				rl.fail("reload: %v", err)
				_ = m.point(rl.live)
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			took := time.Since(start)
			var out struct {
				Generation int `json:"generation"`
			}
			if resp.StatusCode != 200 || json.Unmarshal(body, &out) != nil || out.Generation != rl.ok+2 {
				rl.fail("reload: %d %s", resp.StatusCode, body)
				_ = m.point(rl.live)
				continue
			}
			rl.ok++
			rl.live = next
			rl.lat = append(rl.lat, ms(took))
			if scrapeEach {
				if sc, err := d.scrape(); err == nil {
					rl.serverMs = append(rl.serverMs, sc.sum("leva_reload_last_duration_seconds", nil)*1e3)
				}
			}
		}
	}()
	return rl
}

func (rl *reloader) fail(format string, args ...any) {
	rl.failed++
	rl.errs = append(rl.errs, fmt.Sprintf(format, args...))
}

func (rl *reloader) stop() {
	close(rl.stopc)
	<-rl.done
}
