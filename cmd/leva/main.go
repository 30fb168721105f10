// Command leva builds relational embeddings from a directory of CSV
// files and optionally trains a downstream model, exercising the whole
// pipeline from the shell:
//
//	leva embed -data ./csvs -out embedding.tsv -dim 100
//	leva train -data ./csvs -base orders -target churn
//
// The embed subcommand writes one line per embedded entity: the entity
// key (a token, or table:rowIdx for rows), a tab, and the
// space-separated vector.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	leva "repro"
	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "embed":
		err = runEmbed(os.Args[2:])
	case "train":
		err = runTrain(os.Args[2:])
	case "apply":
		err = runApply(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "neighbors":
		err = runNeighbors(os.Args[2:])
	case "bundle":
		err = runBundle(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "leva:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  leva embed -data <csv dir> [-out emb.tsv] [-bundle dir] [-index dir] [-dim N] [-method auto|mf|rw] [-bins N] [-seed N] [-workers N] [-cache DIR | -no-cache] [-metrics-dump]
  leva train -data <csv dir> -base <table> -target <column> [-dim N] [-method ...] [-seed N] [-workers N] [-cache DIR | -no-cache] [-metrics-dump]
  leva apply -bundle <dir> -data <csv dir> -table <name> [-out features.tsv] [-exclude col1,col2]
  leva neighbors -index <dir> -token <entity> [-k N] [-ef N]
  leva bundle info <dir>
  leva inspect -data <csv dir>`)
}

func pipelineFlags(fs *flag.FlagSet) (data *string, dim *int, method *string, bins *int, seed *int64, workers *int, cache *string, noCache *bool) {
	data = fs.String("data", "", "directory of CSV files (one table per file)")
	dim = fs.Int("dim", 100, "embedding dimension")
	method = fs.String("method", "auto", "embedding method: auto, mf, rw")
	bins = fs.Int("bins", 50, "numeric histogram bins")
	seed = fs.Int64("seed", 1, "random seed")
	workers = fs.Int("workers", 0, "pipeline worker goroutines (0 = all cores, 1 = sequential)")
	cache = fs.String("cache", "", "stage cache directory (default: .leva-cache inside -data)")
	noCache = fs.Bool("no-cache", false, "disable the stage cache and rebuild every stage")
	return
}

// metricsRegistry implements -metrics-dump: when enabled, the run
// carries a registry that accumulates the pipeline metrics (see
// docs/OBSERVABILITY.md), rendered to stderr at the end in Prometheus
// text format. Stderr keeps -out/stdout data clean.
func metricsRegistry(dump bool) *obs.Registry {
	if !dump {
		return nil
	}
	return obs.NewRegistry()
}

func dumpMetrics(r *obs.Registry) error {
	if r == nil {
		return nil
	}
	fmt.Fprintln(os.Stderr, "--- metrics ---")
	return r.WritePrometheus(os.Stderr)
}

// resolveCacheDir implements the -cache/-no-cache flag pair: caching is
// on by default, rooted next to the data it fingerprints.
func resolveCacheDir(data, cache string, noCache bool) string {
	switch {
	case noCache:
		return ""
	case cache != "":
		return cache
	default:
		return filepath.Join(data, ".leva-cache")
	}
}

func buildConfig(dim, bins int, method string, seed int64, workers int, cacheDir string) leva.Config {
	cfg := leva.DefaultConfig()
	cfg.Dim = dim
	cfg.Seed = seed
	cfg.Textify.BinCount = bins
	cfg.Method = leva.Method(method)
	cfg.Workers = workers
	cfg.CacheDir = cacheDir
	return cfg
}

// printStageTimings writes each build stage's wall time and heap
// high-water mark (core.Timings) as one line of key=value pairs.
func printStageTimings(t core.Timings) {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	fmt.Printf("stage timings: textify_ms=%.3f textify_heap_peak_bytes=%d graph_ms=%.3f graph_heap_peak_bytes=%d embed_ms=%.3f embed_heap_peak_bytes=%d\n",
		ms(t.Textify), t.TextifyHeapPeak, ms(t.GraphBuild), t.GraphHeapPeak, ms(t.Embed), t.EmbedHeapPeak)
}

// printCacheReport writes the per-stage hit/miss line of a cached build
// plus any decisions worth surfacing.
func printCacheReport(res *leva.Result) {
	c := res.Timings.Cache
	if c.Enabled {
		fmt.Printf("cache: textify=%s tables=%d/%d graph=%s embed=%s\n",
			c.Textify, c.TablesReused, c.TablesReused+c.TablesRebuilt, c.Graph, c.Embed)
		if c.StoreErrors > 0 {
			fmt.Fprintf(os.Stderr, "leva: warning: %d cache writes failed (build unaffected)\n", c.StoreErrors)
		}
	}
	if res.UnweightedFallback {
		fmt.Println("graph: fell back to unweighted (alias tables exceeded memory budget)")
	}
}

func runEmbed(args []string) error {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	data, dim, method, bins, seed, workers, cache, noCache := pipelineFlags(fs)
	out := fs.String("out", "embedding.tsv", "output TSV path")
	bundle := fs.String("bundle", "", "also save a reusable deployment bundle to this directory")
	index := fs.String("index", "", "also build and save an HNSW ANN index over the embedding to this directory (for levad -index)")
	dump := fs.Bool("metrics-dump", false, "print build metrics to stderr in Prometheus text format")
	fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("embed: -data is required")
	}

	db, err := leva.ReadCSVDir(*data)
	if err != nil {
		return err
	}
	reg := metricsRegistry(*dump)
	cfg := buildConfig(*dim, *bins, *method, *seed, *workers,
		resolveCacheDir(*data, *cache, *noCache))
	cfg.Obs = reg
	start := time.Now()
	res, err := leva.Build(db, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("built %s embedding: %d entities, dim %d, graph %d nodes / %d edges in %v\n",
		res.MethodUsed, res.Embedding.Len(), res.Embedding.Dim,
		res.Graph.NumNodes(), res.Graph.NumEdges(), time.Since(start).Round(time.Millisecond))
	printStageTimings(res.Timings)
	printCacheReport(res)

	if err := durable.WriteFileFunc(durable.OS(), *out, res.Embedding.WriteTSV); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	if *bundle != "" {
		if err := res.SaveBundle(*bundle); err != nil {
			return err
		}
		fmt.Printf("saved deployment bundle to %s\n", *bundle)
	}
	if *index != "" {
		// The index derives from the embedding content, so it shares
		// the pipeline's stage cache: re-running embed with an
		// unchanged embedding serves the index from cache too.
		var annCache *core.Cache
		if cfg.CacheDir != "" {
			annCache = core.NewCache(cfg.CacheDir)
		}
		stage := &core.ANNStage{
			Embedding: res.Embedding,
			Opts:      ann.Options{Seed: *seed},
			Cache:     annCache,
		}
		annStart := time.Now()
		ix, cached, err := stage.Run()
		if err != nil {
			return err
		}
		if err := ix.Save(*index); err != nil {
			return err
		}
		src := "built"
		if cached {
			src = "cached"
		}
		fmt.Printf("saved ANN index (%d vectors, %s in %v) to %s\n",
			ix.Len(), src, time.Since(annStart).Round(time.Millisecond), *index)
	}
	return dumpMetrics(reg)
}

// runNeighbors queries a saved ANN index from the shell: one line per
// neighbor, "token<tab>score", nearest first.
func runNeighbors(args []string) error {
	fs := flag.NewFlagSet("neighbors", flag.ExitOnError)
	index := fs.String("index", "", "ANN index directory (from embed -index)")
	token := fs.String("token", "", "entity to look up (a token, or table:rowIdx for rows)")
	k := fs.Int("k", 10, "neighbors to return")
	ef := fs.Int("ef", 0, "search beam width (0 = index default; larger = higher recall)")
	fs.Parse(args)
	if *index == "" || *token == "" {
		return fmt.Errorf("neighbors: -index and -token are required")
	}
	ix, err := ann.Load(*index)
	if err != nil {
		return err
	}
	results, err := ix.SearchName(*token, *k, *ef)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%s\t%g\n", r.Name, r.Score)
	}
	return nil
}

// runBundle dispatches the bundle maintenance subcommands; info
// (inspect a saved bundle without serving it) is the only one.
func runBundle(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("bundle: want a subcommand: info")
	}
	switch args[0] {
	case "info":
		return runBundleInfo(args[1:])
	default:
		return fmt.Errorf("bundle: unknown subcommand %q (want info)", args[0])
	}
}

// runBundleInfo prints what a bundle holds: format version, integrity
// status, embedding shape, fitted column order per table, payload
// section sizes, and the provenance of the build that produced it.
func runBundleInfo(args []string) error {
	fs := flag.NewFlagSet("bundle info", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("bundle info: want exactly one bundle directory argument")
	}
	info, err := leva.ReadBundleInfo(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(info)
	}
	fmt.Printf("bundle %s\n", info.Dir)
	fmt.Printf("  format:        version %d, binary (bundle.bin) (verified against MANIFEST.json)\n", info.FormatVersion)
	fmt.Printf("  embedding:     %d entities x %d dims (%s, %s featurization)\n",
		info.Entities, info.Dim, info.MethodUsed, info.Featurization)
	fmt.Printf("  payload:       %d bytes total (symbols %d, arena %d)\n",
		info.PayloadBytes, info.SymbolBytes, info.ArenaBytes)
	if info.UnseenFallbackDims > 0 {
		fmt.Printf("  unseen fallback dims: %d\n", info.UnseenFallbackDims)
	}
	fmt.Printf("  columns:\n")
	for _, tc := range info.Columns {
		fmt.Printf("    %s: %s\n", tc.Table, strings.Join(tc.Columns, ", "))
	}
	if c := info.StageCache; c != nil && c.Enabled {
		fmt.Printf("  build cache:   textify=%s tables=%d/%d graph=%s embed=%s\n",
			c.Textify, c.TablesReused, c.TablesReused+c.TablesRebuilt, c.Graph, c.Embed)
	}
	if info.UnweightedFallback {
		fmt.Printf("  build note:    fell back to the unweighted graph (memory budget)\n")
	}
	return nil
}

// runApply featurizes a table with a previously saved bundle and writes
// one TSV line per row: rowIdx, tab, space-separated features.
func runApply(args []string) error {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	bundle := fs.String("bundle", "", "deployment bundle directory (from embed -bundle)")
	data := fs.String("data", "", "directory of CSV files")
	table := fs.String("table", "", "table to featurize")
	out := fs.String("out", "features.tsv", "output TSV path")
	exclude := fs.String("exclude", "", "comma-separated columns to exclude (e.g. the target)")
	fs.Parse(args)
	if *bundle == "" || *data == "" || *table == "" {
		return fmt.Errorf("apply: -bundle, -data and -table are required")
	}
	res, err := leva.LoadBundle(*bundle)
	if err != nil {
		return err
	}
	db, err := leva.ReadCSVDir(*data)
	if err != nil {
		return err
	}
	t := db.Table(*table)
	if t == nil {
		return fmt.Errorf("apply: no table %q (have %s)", *table, strings.Join(db.TableNames(), ", "))
	}
	var skip []string
	if *exclude != "" {
		skip = strings.Split(*exclude, ",")
	}
	// New data: rows are composed from value-node vectors.
	x, err := res.Featurize(t, *table, skip, func(int) int { return -1 })
	if err != nil {
		return err
	}
	err = durable.WriteFileFunc(durable.OS(), *out, func(w io.Writer) error {
		var line []byte
		for i, row := range x {
			line = append(strconv.AppendInt(line[:0], int64(i), 10), '\t')
			for j, v := range row {
				if j > 0 {
					line = append(line, ' ')
				}
				line = strconv.AppendFloat(line, v, 'g', -1, 64)
			}
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d rows x %d features to %s\n", len(x), len(x[0]), *out)
	return nil
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	data, dim, method, bins, seed, workers, cache, noCache := pipelineFlags(fs)
	base := fs.String("base", "", "base table (holds the target column)")
	target := fs.String("target", "", "target column")
	dump := fs.Bool("metrics-dump", false, "print build metrics to stderr in Prometheus text format")
	fs.Parse(args)
	if *data == "" || *base == "" || *target == "" {
		return fmt.Errorf("train: -data, -base and -target are required")
	}

	db, err := leva.ReadCSVDir(*data)
	if err != nil {
		return err
	}
	bt := db.Table(*base)
	if bt == nil {
		return fmt.Errorf("train: no table %q (have %s)", *base, strings.Join(db.TableNames(), ", "))
	}
	col := bt.Column(*target)
	if col == nil {
		return fmt.Errorf("train: table %q has no column %q", *base, *target)
	}

	task := leva.Task{DB: db, BaseTable: *base, Target: *target, Seed: *seed}
	reg := metricsRegistry(*dump)
	cfg := buildConfig(*dim, *bins, *method, *seed, *workers,
		resolveCacheDir(*data, *cache, *noCache))
	cfg.Obs = reg

	// Numeric targets with many distinct values run as regression,
	// everything else as classification.
	if col.UniqueRatio() > 0.1 && numericColumn(col) {
		data, err := leva.PrepareRegression(task, cfg)
		if err != nil {
			return err
		}
		rf := &leva.RandomForest{NumTrees: 80, Seed: *seed}
		rf.FitRegression(data.XTrain, data.YRegTrain)
		mae := leva.MAE(rf.PredictRegression(data.XTest), data.YRegTest)
		fmt.Printf("regression (%s used): test MAE = %.4f over %d test rows\n",
			data.Result.MethodUsed, mae, len(data.XTest))
		return dumpMetrics(reg)
	}
	dataC, err := leva.PrepareClassification(task, cfg)
	if err != nil {
		return err
	}
	rf := &leva.RandomForest{NumTrees: 80, Seed: *seed}
	rf.Fit(dataC.XTrain, dataC.YClassTrain)
	acc := leva.Accuracy(rf.Predict(dataC.XTest), dataC.YClassTest)
	fmt.Printf("classification (%s used): test accuracy = %.4f (%d classes, %d test rows)\n",
		dataC.Result.MethodUsed, acc, dataC.NumClasses, len(dataC.XTest))
	return dumpMetrics(reg)
}

// runInspect profiles every table and column of a CSV directory.
func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	data := fs.String("data", "", "directory of CSV files")
	fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("inspect: -data is required")
	}
	db, err := leva.ReadCSVDir(*data)
	if err != nil {
		return err
	}
	db.Describe(os.Stdout)
	return nil
}

func numericColumn(c *leva.Column) bool {
	nonNull, numeric := 0, 0
	for _, v := range c.Values {
		if v.IsNull() {
			continue
		}
		nonNull++
		if _, ok := v.Float(); ok {
			numeric++
		}
	}
	return nonNull > 0 && numeric == nonNull
}
