package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/embed"
	"repro/internal/synth"
)

// buildSignature captures everything the staged-build invariant demands
// be bit-identical: the embedding vectors (via their exact TSV
// encoding), the graph (via its canonical binary encoding), the fitted
// textifier (via its canonical JSON), plus stats and decisions.
type buildSignature struct {
	embedding []byte
	graph     []byte
	textifier []byte
	statsJSON []byte
	method    embed.Method
	fellBack  bool
}

func signatureOf(t *testing.T, r *Result) buildSignature {
	t.Helper()
	var emb, g bytes.Buffer
	if err := r.Embedding.WriteTSV(&emb); err != nil {
		t.Fatal(err)
	}
	if err := r.Graph.WriteBinary(&g); err != nil {
		t.Fatal(err)
	}
	tx, err := json.Marshal(r.Textifier)
	if err != nil {
		t.Fatal(err)
	}
	st, err := json.Marshal(r.GraphStats)
	if err != nil {
		t.Fatal(err)
	}
	return buildSignature{
		embedding: emb.Bytes(),
		graph:     g.Bytes(),
		textifier: tx,
		statsJSON: st,
		method:    r.MethodUsed,
		fellBack:  r.UnweightedFallback,
	}
}

func assertSameSignature(t *testing.T, label string, a, b buildSignature) {
	t.Helper()
	if !bytes.Equal(a.embedding, b.embedding) {
		t.Errorf("%s: embedding bytes differ", label)
	}
	if !bytes.Equal(a.graph, b.graph) {
		t.Errorf("%s: graph bytes differ", label)
	}
	if !bytes.Equal(a.textifier, b.textifier) {
		t.Errorf("%s: textifier JSON differs", label)
	}
	if !bytes.Equal(a.statsJSON, b.statsJSON) {
		t.Errorf("%s: graph stats differ", label)
	}
	if a.method != b.method {
		t.Errorf("%s: method %s vs %s", label, a.method, b.method)
	}
	if a.fellBack != b.fellBack {
		t.Errorf("%s: fallback %v vs %v", label, a.fellBack, b.fellBack)
	}
}

// mutateOneTable returns a copy of db where a single cell of the named
// table changed — exactly one table fingerprint moves.
func mutateOneTable(t *testing.T, db *dataset.Database, name string) *dataset.Database {
	t.Helper()
	out := &dataset.Database{}
	mutated := false
	for _, tb := range db.Tables {
		if tb.Name != name {
			out.Tables = append(out.Tables, tb)
			continue
		}
		c := tb.Clone()
		col := c.Columns[len(c.Columns)-1]
		col.Values[0] = dataset.String("mutated_value_zz")
		out.Tables = append(out.Tables, c)
		mutated = true
	}
	if !mutated {
		t.Fatalf("table %q not in database", name)
	}
	return out
}

// TestCacheColdWarmPartialIdentical is the golden equivalence test of
// the staged pipeline: cold (empty cache), warm (full cache) and
// partially-invalidated builds must be bit-identical to a from-scratch
// no-cache build, for MF at several worker counts and for RW at
// Workers=1 (the worker count where Hogwild SGD is deterministic).
func TestCacheColdWarmPartialIdentical(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 50, Seed: 21})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"mf-w1", Config{Dim: 8, Seed: 21, Method: embed.MethodMF, Workers: 1}},
		{"mf-w3", Config{Dim: 8, Seed: 21, Method: embed.MethodMF, Workers: 3}},
		{"rw-w1", Config{Dim: 8, Seed: 21, Method: embed.MethodRW, Workers: 1,
			RW: embed.RWOptions{WalkLength: 8, WalksPerNode: 2, Epochs: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scratch, err := BuildEmbedding(spec.DB, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := signatureOf(t, scratch)

			cfg := tc.cfg
			cfg.CacheDir = t.TempDir()
			cold, err := BuildEmbedding(spec.DB, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSignature(t, "cold", want, signatureOf(t, cold))
			cc := cold.Timings.Cache
			if !cc.Enabled || cc.Textify != StageRebuilt || cc.Graph != StageRebuilt || cc.Embed != StageRebuilt {
				t.Errorf("cold cache stats = %+v", cc)
			}
			if cc.TablesRebuilt != len(spec.DB.Tables) || cc.TablesReused != 0 {
				t.Errorf("cold tables reused/rebuilt = %d/%d", cc.TablesReused, cc.TablesRebuilt)
			}
			if cc.StoreErrors != 0 {
				t.Errorf("cold build had %d store errors", cc.StoreErrors)
			}

			warm, err := BuildEmbedding(spec.DB, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSignature(t, "warm", want, signatureOf(t, warm))
			wc := warm.Timings.Cache
			if wc.Textify != StageCached || wc.Graph != StageCached || wc.Embed != StageCached {
				t.Errorf("warm cache stats = %+v", wc)
			}
			if wc.TablesReused != len(spec.DB.Tables) || wc.TablesRebuilt != 0 {
				t.Errorf("warm tables reused/rebuilt = %d/%d", wc.TablesReused, wc.TablesRebuilt)
			}

			// Partially invalidate: one changed table re-tokenizes alone,
			// downstream stages rebuild, and the result is bit-identical
			// to a from-scratch build of the mutated database.
			mutated := mutateOneTable(t, spec.DB, "price_info")
			mutScratch, err := BuildEmbedding(mutated, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			part, err := BuildEmbedding(mutated, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSignature(t, "partial", signatureOf(t, mutScratch), signatureOf(t, part))
			pc := part.Timings.Cache
			if pc.Textify != StagePartial || pc.Graph != StageRebuilt || pc.Embed != StageRebuilt {
				t.Errorf("partial cache stats = %+v", pc)
			}
			if pc.TablesReused != len(spec.DB.Tables)-1 || pc.TablesRebuilt != 1 {
				t.Errorf("partial tables reused/rebuilt = %d/%d", pc.TablesReused, pc.TablesRebuilt)
			}
		})
	}
}

// TestCacheRecordsFallbackDecision checks the unweighted-fallback
// decision is part of the cached graph artifact: a warm build reports
// the same decision the cold build made.
func TestCacheRecordsFallbackDecision(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 50, Seed: 6})
	cfg := Config{
		Dim: 8, Seed: 6, Method: embed.MethodRW, MemoryBudgetBytes: 1, Workers: 1,
		RW:       embed.RWOptions{WalkLength: 10, WalksPerNode: 2, Epochs: 1},
		CacheDir: t.TempDir(),
	}
	cold, err := BuildEmbedding(spec.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.UnweightedFallback || cold.Graph.Weighted {
		t.Fatal("tiny budget did not trigger the unweighted fallback")
	}
	warm, err := BuildEmbedding(spec.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timings.Cache.Graph != StageCached {
		t.Errorf("graph stage not cached: %+v", warm.Timings.Cache)
	}
	if !warm.UnweightedFallback || warm.Graph.Weighted {
		t.Error("cached build lost the fallback decision")
	}
	assertSameSignature(t, "fallback warm", signatureOf(t, cold), signatureOf(t, warm))
}

// TestCacheCrashMidWriteIsAtWorstAMiss is the fault-injection golden
// test: a crash in the middle of any cache publication step must never
// corrupt a build — the crashing build itself still returns the correct
// result (store failures are best-effort), and the next build over the
// same cache directory sees at worst a miss, never a torn artifact.
func TestCacheCrashMidWriteIsAtWorstAMiss(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 40, Seed: 31})
	cfg := Config{Dim: 8, Seed: 31, Method: embed.MethodMF, Workers: 1}
	scratch, err := BuildEmbedding(spec.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := signatureOf(t, scratch)

	cases := []struct {
		name string
		op   durable.Op
		n    int
	}{
		{"first payload write", durable.OpWrite, 1},
		{"late payload write", durable.OpWrite, 5},
		{"torn write", durable.OpWrite, 2}, // + ShortWrites below
		{"manifest/entry rename", durable.OpRename, 1},
		{"second entry rename", durable.OpRename, 3},
		{"fsync", durable.OpSync, 1},
		{"mkdir", durable.OpMkdir, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := durable.NewFaultFS(durable.OS())
			ffs.CrashAt(tc.op, tc.n)
			if tc.name == "torn write" {
				ffs.ShortWrites()
			}

			crashed, err := buildWithCache(spec.DB, cfg, newCacheFS(dir, ffs))
			if err != nil {
				t.Fatalf("build failed because its cache crashed: %v", err)
			}
			assertSameSignature(t, "crashing build", want, signatureOf(t, crashed))
			if ffs.Fired() && crashed.Timings.Cache.StoreErrors == 0 {
				t.Error("crash fired but no store error was reported")
			}

			// The next build over the same directory (healthy FS) must
			// load only sealed entries: whatever survived verifies, the
			// rest is a plain miss, and the result is bit-identical.
			cfgWarm := cfg
			cfgWarm.CacheDir = dir
			after, err := BuildEmbedding(spec.DB, cfgWarm)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSignature(t, "build after crash", want, signatureOf(t, after))
			if after.Timings.Cache.StoreErrors != 0 {
				t.Errorf("healthy rebuild reported %d store errors", after.Timings.Cache.StoreErrors)
			}

			// And once repaired, a further build is fully warm.
			final, err := BuildEmbedding(spec.DB, cfgWarm)
			if err != nil {
				t.Fatal(err)
			}
			fc := final.Timings.Cache
			if fc.Textify != StageCached || fc.Graph != StageCached || fc.Embed != StageCached {
				t.Errorf("cache did not repair after crash: %+v", fc)
			}
			assertSameSignature(t, "repaired warm build", want, signatureOf(t, final))
		})
	}
}

// TestCacheEntryOfAnotherFormatVersionIsAMiss: an entry whose manifest
// records a formatVersion other than cacheFormatVersion is never read,
// even under a live fingerprint with every file intact. The build
// rebuilds that stage alone, publishes a current entry over it, and the
// build after that is fully warm.
func TestCacheEntryOfAnotherFormatVersionIsAMiss(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 8})
	cfg := Config{Dim: 8, Seed: 8, Method: embed.MethodMF, Workers: 1, CacheDir: t.TempDir()}
	cold, err := BuildEmbedding(spec.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := signatureOf(t, cold)

	entries, err := filepath.Glob(filepath.Join(cfg.CacheDir, stageEmbed, "*"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("embed cache entries = %v (%v), want one", entries, err)
	}
	m, err := durable.ReadManifest(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	m.FormatVersion = cacheFormatVersion + 1
	if err := durable.WriteManifest(durable.OS(), entries[0], m); err != nil {
		t.Fatal(err)
	}

	next, err := BuildEmbedding(spec.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSignature(t, "rebuild over another version", want, signatureOf(t, next))
	if nc := next.Timings.Cache; nc.Textify != StageCached || nc.Graph != StageCached || nc.Embed != StageRebuilt {
		t.Errorf("cache stats with a version-%d embed entry = %+v, want only embed rebuilt", m.FormatVersion, nc)
	}
	if m, err := durable.ReadManifest(entries[0]); err != nil || m.FormatVersion != cacheFormatVersion {
		t.Fatalf("rebuilt entry not republished at version %d: %+v, %v", cacheFormatVersion, m, err)
	}

	final, err := BuildEmbedding(spec.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fc := final.Timings.Cache; fc.Textify != StageCached || fc.Graph != StageCached || fc.Embed != StageCached {
		t.Errorf("build after the republish is not fully warm: %+v", fc)
	}
	assertSameSignature(t, "warm after republish", want, signatureOf(t, final))
}

// TestFeaturizeTimingAccrues checks deployment time lands in
// Timings.Featurize and Total.
func TestFeaturizeTimingAccrues(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 3})
	res, err := BuildEmbedding(spec.DB, Config{Dim: 8, Seed: 3, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	buildOnly := res.Timings.Total()
	base := spec.DB.Table("expenses")
	if _, err := res.Featurize(base, "expenses", nil, func(i int) int { return i }); err != nil {
		t.Fatal(err)
	}
	if res.Timings.Featurize <= 0 {
		t.Error("featurize duration not recorded")
	}
	if res.Timings.Total() <= buildOnly {
		t.Error("Total does not include featurize time")
	}
}

// TestEmbedCacheEntryIsBundleSections: the embed stage caches its
// embedding as the bundle's own symbols and arena section payloads,
// byte for byte, and a damaged entry decodes to an error (a miss), not
// to a wrong embedding.
func TestEmbedCacheEntryIsBundleSections(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 5})
	dir := t.TempDir()
	cfg := Config{Dim: 8, Seed: 5, Method: embed.MethodMF, Workers: 1, CacheDir: filepath.Join(dir, "cache")}
	res, err := BuildEmbedding(spec.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SaveBundle(filepath.Join(dir, "bundle")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "bundle", bundleBinFile))
	if err != nil {
		t.Fatal(err)
	}
	secs, err := bundleSections(data)
	if err != nil {
		t.Fatal(err)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "cache", stageEmbed, "*"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("embed cache entries = %v (%v), want one", entries, err)
	}
	files, ok := NewCache(filepath.Join(dir, "cache")).Load(stageEmbed, filepath.Base(entries[0]))
	if !ok {
		t.Fatal("embed cache entry does not load")
	}
	if len(files) != 3 {
		t.Errorf("embed cache entry holds %d files, want symbols, arena and meta", len(files))
	}
	if !bytes.Equal(files[artifactSymbolsFile], secs[secSymbols]) {
		t.Error("cached symbols differ from the bundle's symbols section")
	}
	if !bytes.Equal(files[artifactArenaFile], secs[secArena]) {
		t.Error("cached arena differs from the bundle's arena section")
	}

	e, err := decodeEmbedArtifact(files, res.MethodUsed, cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(embeddingTSV(t, e), embeddingTSV(t, res.Embedding)) {
		t.Error("decoded cache entry differs from the built embedding")
	}
	if _, err := decodeEmbedArtifact(files, res.MethodUsed, cfg.Dim+1); err == nil {
		t.Error("entry of the wrong dimension decoded")
	}
	arena := files[artifactArenaFile]
	files[artifactArenaFile] = arena[:len(arena)-8]
	if _, err := decodeEmbedArtifact(files, res.MethodUsed, cfg.Dim); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated arena: err = %v, want ErrCorrupt", err)
	}
}

func embeddingTSV(t *testing.T, e *embed.Embedding) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
