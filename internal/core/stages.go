package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/textify"
)

// The pipeline of paper Fig. 2 as an explicit stage DAG:
//
//	TextifyStage ──▶ GraphStage ──▶ EmbedStage
//
// Each stage declares a fingerprint of everything that determines its
// output — input table contents, stage options, and the upstream
// stage's fingerprint — and produces a serializable artifact stored in
// the content-addressed Cache under that fingerprint. BuildEmbedding is
// a thin driver over the three stages; with a cache attached, a stage
// whose fingerprint matches a sealed entry loads its artifact instead
// of recomputing, and the textify stage goes further: it re-fits and
// re-tokenizes only the tables whose content hash changed, reusing the
// cached tokenization of the rest.
//
// Invariant: at every worker count where a stage is bit-identical
// (textify and graph always, MF always, RW/GloVe at Workers=1), a
// cache-assisted build produces exactly the Result a from-scratch
// BuildEmbedding would. Fingerprints are constructed to make that hold:
// anything that can change stage output is hashed; knobs that provably
// cannot (worker counts of bit-identical stages) are excluded so they
// never cause spurious rebuilds.

// Cache entry stage names (the first path element under the cache root).
const (
	stageTextify = "textify"
	stageGraph   = "graph"
	stageEmbed   = "embed"
)

// Artifact payload file names.
const (
	artifactModelFile     = "model.json"  // per-table textify.Model
	artifactTokensFile    = "tokens.json" // per-table textify.TokenizedTable
	artifactGraphFile     = "graph.bin"   // graph.WriteBinary
	artifactGraphMetaFile = "meta.json"   // graphMeta
	artifactSymbolsFile   = "symbols.bin" // bundle symbols section payload
	artifactArenaFile     = "arena.bin"   // bundle arena section payload
	artifactEmbedMetaFile = "meta.json"   // embedMeta
)

// Stage fingerprint domains; bump a version when an artifact encoding
// or the set of hashed inputs changes.
const (
	textifyTableFPDomain = "leva/stage-textify-table/v1"
	textifyStageFPDomain = "leva/stage-textify/v1"
	graphStageFPDomain   = "leva/stage-graph/v1"
	embedStageFPDomain   = "leva/stage-embed/v3"
)

// TextifyStage fits the textification model and tokenizes every table
// (paper Section 4.1). Its cache granularity is one table: fitting is
// per-table independent (see textify.Fit), so each table's plan and
// tokenization is a separate artifact keyed by that table's content
// hash plus the textify options, and a build after a single-table edit
// reuses every other table's entry.
type TextifyStage struct {
	DB      *dataset.Database
	Opts    textify.Options
	Workers int
	Cache   *Cache

	tableFPs []string
}

// TableFingerprints returns the cache key of every table's artifact, in
// database table order.
func (s *TextifyStage) TableFingerprints() []string {
	if s.tableFPs == nil {
		optsFP := s.Opts.Fingerprint()
		s.tableFPs = make([]string, len(s.DB.Tables))
		for i, t := range s.DB.Tables {
			s.tableFPs[i] = fingerprint.Combine(textifyTableFPDomain, t.Fingerprint(), optsFP)
		}
	}
	return s.tableFPs
}

// Fingerprint identifies the whole stage output: every per-table
// fingerprint, in table order (order matters downstream — the graph
// interns row nodes in table order).
func (s *TextifyStage) Fingerprint() string {
	return fingerprint.Combine(textifyStageFPDomain, s.TableFingerprints()...)
}

// Run produces the fitted model and tokenized tables, loading cached
// per-table artifacts where fingerprints match and re-fitting only the
// rest. reused/rebuilt count tables served from cache versus computed.
func (s *TextifyStage) Run() (model *textify.Model, tokenized []*textify.TokenizedTable, reused, rebuilt int, err error) {
	if s.Cache == nil || len(s.DB.Tables) == 0 {
		model, err = textify.Fit(s.DB, s.Opts)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		tokenized, err = model.TransformAllWorkers(s.DB, s.Workers)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		return model, tokenized, 0, len(s.DB.Tables), nil
	}

	fps := s.TableFingerprints()
	parts := make([]*textify.Model, len(s.DB.Tables))
	tokenized = make([]*textify.TokenizedTable, len(s.DB.Tables))
	var missed []int
	for i := range s.DB.Tables {
		if files, ok := s.Cache.Load(stageTextify, fps[i]); ok {
			part, tok, decErr := decodeTextifyArtifact(files)
			if decErr == nil && part != nil && tok != nil && tok.Table == s.DB.Tables[i].Name {
				parts[i], tokenized[i] = part, tok
				reused++
				continue
			}
		}
		missed = append(missed, i)
	}

	if len(missed) > 0 {
		// Re-fit and re-tokenize only the changed tables, with the same
		// column-granular fan-out the cold path uses so one wide table
		// still saturates the worker pool.
		sub := &dataset.Database{}
		for _, i := range missed {
			sub.Tables = append(sub.Tables, s.DB.Tables[i])
		}
		for _, i := range missed {
			part, fitErr := textify.FitTable(s.DB.Tables[i], s.Opts)
			if fitErr != nil {
				return nil, nil, 0, 0, fitErr
			}
			parts[i] = part
		}
		subModel, mergeErr := textify.Merge(pick(parts, missed)...)
		if mergeErr != nil {
			return nil, nil, 0, 0, mergeErr
		}
		subTok, tErr := subModel.TransformAllWorkers(sub, s.Workers)
		if tErr != nil {
			return nil, nil, 0, 0, tErr
		}
		for k, i := range missed {
			tokenized[i] = subTok[k]
			rebuilt++
			if files, encErr := encodeTextifyArtifact(parts[i], subTok[k]); encErr == nil {
				s.Cache.noteStore(s.Cache.Store(stageTextify, fps[i], files))
			}
		}
	}

	model, err = textify.Merge(parts...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return model, tokenized, reused, rebuilt, nil
}

func pick[T any](all []T, idx []int) []T {
	out := make([]T, 0, len(idx))
	for _, i := range idx {
		out = append(out, all[i])
	}
	return out
}

func encodeTextifyArtifact(part *textify.Model, tok *textify.TokenizedTable) (map[string][]byte, error) {
	modelData, err := json.Marshal(part)
	if err != nil {
		return nil, err
	}
	tokData, err := json.Marshal(tok)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{artifactModelFile: modelData, artifactTokensFile: tokData}, nil
}

func decodeTextifyArtifact(files map[string][]byte) (*textify.Model, *textify.TokenizedTable, error) {
	part := &textify.Model{}
	if err := json.Unmarshal(files[artifactModelFile], part); err != nil {
		return nil, nil, err
	}
	tok := &textify.TokenizedTable{}
	if err := json.Unmarshal(files[artifactTokensFile], tok); err != nil {
		return nil, nil, err
	}
	return part, tok, nil
}

// graphMeta is the JSON sidecar of a cached graph artifact.
type graphMeta struct {
	Stats              graph.Stats `json:"stats"`
	UnweightedFallback bool        `json:"unweightedFallback"`
}

// GraphStage builds the refined relational graph from the tokenized
// tables (paper Section 3, Algorithm 1), including the memory-budget
// fallback to an unweighted graph. The fallback decision is part of the
// stage — it depends on the built graph's degree statistics — so the
// knobs feeding it (method selection, dim, budget, walk shape) are part
// of the stage fingerprint, and the artifact records which graph
// (weighted or stripped) was the outcome.
type GraphStage struct {
	Tokenized []*textify.TokenizedTable
	// InputFP is the upstream TextifyStage fingerprint; it stands in
	// for the full tokenized content, which it determines.
	InputFP string
	Opts    graph.Options

	// Fallback inputs (paper Section 3.2 / 4.3): the unweighted
	// fallback triggers when random walks were selected and the alias
	// tables they need exceed the memory budget.
	Method            embed.Method
	Dim               int
	MemoryBudgetBytes int64
	WalkLength        int
	WalksPerNode      int

	Cache *Cache
}

// Fingerprint identifies the graph artifact: tokenized input, graph
// options, and every knob of the fallback decision.
func (s *GraphStage) Fingerprint() string {
	h := fingerprint.New(graphStageFPDomain)
	h.String(s.InputFP)
	h.String(s.Opts.Fingerprint())
	h.String(string(s.Method))
	h.Int(int64(s.Dim))
	h.Int(s.MemoryBudgetBytes)
	h.Int(int64(s.WalkLength))
	h.Int(int64(s.WalksPerNode))
	return h.Sum()
}

// Run returns the (possibly unweighted-fallback) graph, its stats, and
// whether the fallback fired, loading the cached artifact when the
// fingerprint matches.
func (s *GraphStage) Run() (g *graph.Graph, stats graph.Stats, fellBack, cached bool, err error) {
	var fp string
	if s.Cache != nil {
		fp = s.Fingerprint()
		if files, ok := s.Cache.Load(stageGraph, fp); ok {
			g, stats, fellBack, err = decodeGraphArtifact(files)
			if err == nil {
				return g, stats, fellBack, true, nil
			}
			// A decode failure is a miss; fall through and rebuild.
		}
	}

	g, stats = graph.Build(s.Tokenized, s.Opts)
	// Section 3.2: weighted graphs are the default unless the alias
	// tables weighted random walks would need blow the memory budget;
	// then Leva falls back to the unweighted graph. Only the RW path
	// pays for alias tables, so the check is gated on it. The estimate
	// comes from the weighted graph's own degree stats, and the
	// fallback strips the weights in place — construction is identical
	// either way, so no second build happens.
	if g.Weighted && s.MemoryBudgetBytes > 0 &&
		embed.Select(s.Method, g, s.Dim, s.MemoryBudgetBytes) == embed.MethodRW &&
		g.EstimateRWMemoryBytes(s.WalkLength, s.WalksPerNode) > s.MemoryBudgetBytes {
		g = g.StripWeights()
		fellBack = true
	}

	if s.Cache != nil {
		if files, encErr := encodeGraphArtifact(g, stats, fellBack); encErr == nil {
			s.Cache.noteStore(s.Cache.Store(stageGraph, fp, files))
		}
	}
	return g, stats, fellBack, false, nil
}

func encodeGraphArtifact(g *graph.Graph, stats graph.Stats, fellBack bool) (map[string][]byte, error) {
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		return nil, err
	}
	meta, err := json.Marshal(graphMeta{Stats: stats, UnweightedFallback: fellBack})
	if err != nil {
		return nil, err
	}
	return map[string][]byte{artifactGraphFile: buf.Bytes(), artifactGraphMetaFile: meta}, nil
}

func decodeGraphArtifact(files map[string][]byte) (*graph.Graph, graph.Stats, bool, error) {
	g, err := graph.ReadBinary(bytes.NewReader(files[artifactGraphFile]))
	if err != nil {
		return nil, graph.Stats{}, false, err
	}
	var meta graphMeta
	if err := json.Unmarshal(files[artifactGraphMetaFile], &meta); err != nil {
		return nil, graph.Stats{}, false, err
	}
	return g, meta.Stats, meta.UnweightedFallback, nil
}

// embedMeta is the JSON sidecar of a cached embedding artifact.
type embedMeta struct {
	Method embed.Method `json:"method"`
	Dim    int          `json:"dim"`
}

// EmbedStage constructs the embedding over the graph with the method
// the memory rule selects (paper Section 4.2). Its artifact is the
// bundle's own symbols and arena section payloads (plus a small JSON
// sidecar recording method and dimension), which hold the float32
// arena bit for bit, so a cache-loaded embedding is bit-identical to
// the one the build produced.
type EmbedStage struct {
	Graph *graph.Graph
	// InputFP is the upstream GraphStage fingerprint.
	InputFP string
	Cfg     Config
	Cache   *Cache
}

// resolve picks the method (applying the auto rule against the actual
// graph) and materializes its options with the pipeline-wide Dim and
// Seed threaded in, exactly as the embedding construction will receive
// them.
func (s *EmbedStage) resolve() (embed.Method, string) {
	method := embed.Select(s.Cfg.Method, s.Graph, s.Cfg.Dim, s.Cfg.MemoryBudgetBytes)
	var optsFP string
	switch method {
	case embed.MethodMF:
		o := s.Cfg.MF
		o.Dim, o.Seed = s.Cfg.Dim, s.Cfg.Seed
		optsFP = o.Fingerprint()
	case embed.MethodRW:
		o := s.Cfg.RW
		o.Dim, o.Seed = s.Cfg.Dim, s.Cfg.Seed
		optsFP = o.Fingerprint()
	case embed.MethodGloVe:
		o := s.Cfg.GloVe
		o.Dim, o.Seed = s.Cfg.Dim, s.Cfg.Seed
		optsFP = o.Fingerprint()
	}
	return method, optsFP
}

// Fingerprint identifies the embedding artifact: the graph it is built
// over plus the resolved method and its fully-defaulted options. Only
// the selected method's options are hashed, so tuning RW knobs cannot
// invalidate a cached MF embedding.
func (s *EmbedStage) Fingerprint() string {
	method, optsFP := s.resolve()
	return fingerprint.Combine(embedStageFPDomain, s.InputFP, string(method),
		strconv.Itoa(s.Cfg.Dim), strconv.FormatInt(s.Cfg.Seed, 10), optsFP)
}

// Run returns the embedding and the method used, loading the cached
// artifact when the fingerprint matches.
func (s *EmbedStage) Run() (e *embed.Embedding, method embed.Method, cached bool, err error) {
	method, _ = s.resolve()
	var fp string
	if s.Cache != nil {
		fp = s.Fingerprint()
		if files, ok := s.Cache.Load(stageEmbed, fp); ok {
			if e, decErr := decodeEmbedArtifact(files, method, s.Cfg.Dim); decErr == nil {
				return e, method, true, nil
			}
		}
	}

	switch method {
	case embed.MethodMF:
		opts := s.Cfg.MF
		opts.Dim, opts.Seed = s.Cfg.Dim, s.Cfg.Seed
		e = embed.MF(s.Graph, opts)
	case embed.MethodRW:
		opts := s.Cfg.RW
		opts.Dim, opts.Seed = s.Cfg.Dim, s.Cfg.Seed
		e = embed.RW(s.Graph, opts)
	case embed.MethodGloVe:
		opts := s.Cfg.GloVe
		opts.Dim, opts.Seed = s.Cfg.Dim, s.Cfg.Seed
		e = embed.GloVe(s.Graph, opts)
	default:
		return nil, method, false, fmt.Errorf("core: unknown embedding method %q", method)
	}

	if s.Cache != nil {
		if files, encErr := encodeEmbedArtifact(e, method); encErr == nil {
			s.Cache.noteStore(s.Cache.Store(stageEmbed, fp, files))
		}
	}
	return e, method, false, nil
}

// encodeEmbedArtifact stores an embedding as the bundle's own symbols
// and arena section payloads, so a warm build views the cached bytes
// instead of parsing them.
func encodeEmbedArtifact(e *embed.Embedding, method embed.Method) (map[string][]byte, error) {
	meta, err := json.Marshal(embedMeta{Method: method, Dim: e.Dim})
	if err != nil {
		return nil, err
	}
	syms, arena := encodeEmbeddingSections(e)
	return map[string][]byte{artifactSymbolsFile: syms, artifactArenaFile: arena, artifactEmbedMetaFile: meta}, nil
}

func decodeEmbedArtifact(files map[string][]byte, method embed.Method, dim int) (*embed.Embedding, error) {
	var meta embedMeta
	if err := json.Unmarshal(files[artifactEmbedMetaFile], &meta); err != nil {
		return nil, err
	}
	if meta.Method != method {
		return nil, fmt.Errorf("core: cached embedding was built by %q, want %q", meta.Method, method)
	}
	return decodeEmbeddingSections(files[artifactSymbolsFile], files[artifactArenaFile], dim)
}
