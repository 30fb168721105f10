// Package leva is the public API of this Leva reproduction: an
// end-to-end system that boosts machine learning over relational data
// by building a relational embedding (Zhao & Castro Fernandez, SIGMOD
// 2022).
//
// Given a collection of tables with no key or join-path information,
// Leva textifies the data, represents it as a graph of row and value
// nodes, refines the graph with attribute voting, embeds it (randomized
// SVD matrix factorization or random walks + SGNS), and featurizes the
// base table with the resulting vectors:
//
//	db, _ := leva.ReadCSVDir("data/")
//	res, _ := leva.Build(db, leva.DefaultConfig())
//	x, _ := res.Featurize(db.Table("orders"), "orders", []string{"label"},
//	        func(i int) int { return i })
//
// For supervised tasks the one-call helpers split, embed (excluding
// test rows and the target column), and featurize:
//
//	data, _ := leva.PrepareClassification(leva.Task{
//	        DB: db, BaseTable: "orders", Target: "label",
//	}, leva.DefaultConfig())
//
// A built Result can be saved as a deployment bundle (Result.SaveBundle)
// and served online by the levad daemon (cmd/levad, internal/serve),
// which answers featurization requests over HTTP against the loaded
// embedding — see docs/SERVING.md.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
package leva

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/textify"
)

// Re-exported data-model types.
type (
	// Database is a named collection of tables.
	Database = dataset.Database
	// Table is a named collection of equal-length columns.
	Table = dataset.Table
	// Column is a named vector of values.
	Column = dataset.Column
	// Value is one relational cell.
	Value = dataset.Value

	// Config collects the pipeline parameters of paper Table 2.
	Config = core.Config
	// Task describes a supervised problem over a database.
	Task = core.Task
	// Result is a built relational embedding plus deployment state.
	Result = core.Result
	// SupervisedData is a featurized train/test split.
	SupervisedData = core.SupervisedData
	// Embedding maps tokens and rows to vectors.
	Embedding = embed.Embedding

	// Method selects the embedding construction algorithm.
	Method = embed.Method
	// FeaturizationMode selects Row or Row+Value deployment.
	FeaturizationMode = core.FeaturizationMode

	// TextifyOptions configures column typing and binning.
	TextifyOptions = textify.Options
	// GraphOptions configures graph construction and refinement.
	GraphOptions = graph.Options
	// MFOptions and RWOptions tune the two embedding methods.
	MFOptions = embed.MFOptions
	RWOptions = embed.RWOptions
)

// Embedding method selectors.
const (
	// MethodAuto picks MF when the estimated memory fits the
	// configured budget and RW otherwise (paper Section 4.2).
	MethodAuto = embed.MethodAuto
	// MethodMF is randomized-SVD matrix factorization.
	MethodMF = embed.MethodMF
	// MethodRW is random walks plus skip-gram negative sampling.
	MethodRW = embed.MethodRW
)

// Featurization modes (paper Section 4.4).
const (
	// RowPlusValue concatenates row-node and mean value-node vectors.
	RowPlusValue = core.RowPlusValue
	// RowOnly uses the row-node vector alone.
	RowOnly = core.RowOnly
)

// NewDatabase builds a database from tables.
func NewDatabase(tables ...*Table) *Database { return dataset.NewDatabase(tables...) }

// NewTable creates an empty table with the given column names.
func NewTable(name string, cols ...string) *Table { return dataset.NewTable(name, cols...) }

// Cell constructors.
var (
	// Null is the absent value.
	Null = dataset.Null
	// String wraps a string cell.
	String = dataset.String
	// Number wraps a float cell.
	Number = dataset.Number
	// Int wraps an integer cell.
	Int = dataset.Int
)

// ReadCSVDir loads every *.csv in dir into a Database (table names are
// the file names without extension).
func ReadCSVDir(dir string) (*Database, error) { return dataset.ReadCSVDir(dir) }

// DefaultConfig returns the paper's default parameters (Table 2):
// 50 histogram bins, kurtosis-chosen histogram type, theta_range 50%,
// theta_min 5%, weighted graph, embedding size 100, Row+Value
// featurization, automatic method selection.
func DefaultConfig() Config {
	return Config{Dim: 100, Method: MethodAuto, Featurization: RowPlusValue}
}

// Build runs textification, graph construction/refinement and embedding
// construction over db. Exclude test rows and target columns first, or
// use PrepareClassification / PrepareRegression which do it for you.
func Build(db *Database, cfg Config) (*Result, error) {
	return core.BuildEmbedding(db, cfg)
}

// PrepareClassification splits the base table, builds the embedding on
// the training portion (the target column and test rows never reach the
// pipeline), and featurizes both splits.
func PrepareClassification(task Task, cfg Config) (*SupervisedData, error) {
	return core.PrepareClassification(task, cfg)
}

// PrepareRegression is PrepareClassification for numeric targets.
func PrepareRegression(task Task, cfg Config) (*SupervisedData, error) {
	return core.PrepareRegression(task, cfg)
}

// BundleFormatVersion is the on-disk format written by
// Result.SaveBundle. LoadBundle reads this version alone and refuses
// every other with an error that says to rebuild.
const BundleFormatVersion = core.BundleFormatVersion

// LoadBundle restores a deployment saved with Result.SaveBundle: the
// fitted tokenizer, the embedding, and the deployment config, ready to
// featurize new rows without retraining. The returned Result exposes
// both the batch path (Featurize) and the single-row serving path
// (FeaturizeRow, used by internal/serve and the levad daemon — see
// docs/SERVING.md). The bundle must be sealed: bundle.bin is verified
// against MANIFEST.json first, and a directory without a manifest is
// refused. Corruption — checksum mismatches, truncated or missing
// files — is always an error naming the offending file.
func LoadBundle(dir string) (*Result, error) { return core.LoadBundle(dir) }

// LoadOptions tunes LoadBundleOpts: a hook for non-fatal conditions (a
// crash-interrupted save rolled back to its previous complete version,
// an mmap fallback) and an optional mmap fast path.
type LoadOptions = core.LoadOptions

// LoadBundleOpts is LoadBundle with explicit options. With MMap set
// (and a supporting platform), the bundle's payload is memory-mapped
// instead of read, so a reload costs page-table setup plus the
// integrity hash rather than a full copy of the vectors.
func LoadBundleOpts(dir string, opts LoadOptions) (*Result, error) {
	return core.LoadBundleOpts(dir, opts)
}

// BundleInfo describes a saved bundle without loading it for serving.
type BundleInfo = core.BundleInfo

// ReadBundleInfo inspects the bundle at dir: format version, dimension,
// entity count, fitted column order, section sizes, build provenance.
func ReadBundleInfo(dir string) (*BundleInfo, error) {
	return core.ReadBundleInfo(dir)
}

// AutoTuneOptions bounds the automatic configuration search.
type AutoTuneOptions = core.AutoTuneOptions

// AutoTune searches bin count and embedding dimension on a validation
// split carved from the training rows and returns the base config with
// the winners filled in (paper Section 4.4's hyper-parameter strategy).
func AutoTune(task Task, base Config, opts AutoTuneOptions) (Config, error) {
	return core.AutoTune(task, base, opts)
}
