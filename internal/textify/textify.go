// Package textify implements Leva's first pipeline stage: converting
// heterogeneous relational data into string tokens (paper Section 4.1).
//
// Columns are classified into keys, numeric data, datetime data, atomic
// strings and formatted string lists. Keys and strings are encoded
// directly; numeric and datetime data is quantized into histogram bins
// (equi-width or equi-depth, chosen by a kurtosis test) and encoded as
// "attribute#bin" tokens so that numerical proximity survives
// tokenization while cardinality stays bounded. Null cells emit no
// token; dirty missing markers such as "?" pass through as ordinary
// strings because the graph-refinement voting stage (not this one) is
// responsible for detecting and removing them.
package textify

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// ColumnType classifies a column for textification purposes.
type ColumnType uint8

const (
	// TypeString is an atomic string column; values are encoded
	// directly (lower-cased, trimmed).
	TypeString ColumnType = iota
	// TypeKey is a key-like column (unique ratio near one, not
	// floating point); values are encoded directly without binning.
	TypeKey
	// TypeNumeric is a numeric column; values are histogram-binned.
	TypeNumeric
	// TypeDateTime is a datetime column; values are binned over Unix
	// seconds.
	TypeDateTime
	// TypeStringList is a separator-delimited list column; each
	// element is encoded as its own string token.
	TypeStringList
	// TypeCategoricalInt is an integer column with bounded
	// cardinality (for example a foreign-key reference to a numeric
	// key). Values are encoded directly so inclusion dependencies
	// against key columns survive; binning them would break join
	// recovery because the unique (key) side is encoded directly.
	TypeCategoricalInt
)

func (t ColumnType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeKey:
		return "key"
	case TypeNumeric:
		return "numeric"
	case TypeDateTime:
		return "datetime"
	case TypeStringList:
		return "string-list"
	case TypeCategoricalInt:
		return "categorical-int"
	default:
		return fmt.Sprintf("ColumnType(%d)", uint8(t))
	}
}

// Options configures textification. The zero value is ready to use with
// the paper's defaults.
type Options struct {
	// BinCount is the number of histogram bins for numeric and
	// datetime columns. Default 50 (paper Table 2).
	BinCount int
	// KeyUniqueRatio is the unique-value ratio above which a non-float
	// column is treated as a key. The paper asks for a ratio "close to
	// one" to stay robust to duplicates; default 0.95.
	KeyUniqueRatio float64
	// ForceHistogram, when non-nil, overrides the kurtosis-based
	// histogram selection for every numeric column.
	ForceHistogram *stats.HistogramKind
	// DirectIntCardinality is the distinct-count limit under which an
	// integer column is encoded directly rather than binned, so that
	// foreign-key references to numeric keys keep their raw tokens.
	// Default 10000.
	DirectIntCardinality int
	// ListSeparators are candidate separators for string-list
	// detection. Default ",", ";", "|".
	ListSeparators []string
	// ListFraction is the fraction of non-null values that must
	// contain a separator for a column to be treated as a list.
	// Default 0.8.
	ListFraction float64
}

func (o Options) withDefaults() Options {
	if o.BinCount <= 0 {
		o.BinCount = 50
	}
	if o.KeyUniqueRatio <= 0 {
		o.KeyUniqueRatio = 0.95
	}
	if o.DirectIntCardinality <= 0 {
		o.DirectIntCardinality = 10000
	}
	if len(o.ListSeparators) == 0 {
		o.ListSeparators = []string{",", ";", "|"}
	}
	if o.ListFraction <= 0 {
		o.ListFraction = 0.8
	}
	return o
}

// ColumnPlan records how one column is textified.
type ColumnPlan struct {
	Table  string
	Column string
	Type   ColumnType
	// Hist is set for TypeNumeric and TypeDateTime.
	Hist *stats.Histogram
	// Separator is set for TypeStringList.
	Separator string
}

// Model holds fitted textification plans for every column of a database.
// Fit it on training data; Transform then applies the same binning to
// unseen rows, which is how test-time values are quantized.
type Model struct {
	opts  Options
	plans map[string]map[string]*ColumnPlan // table -> column -> plan
	order map[string][]string               // table -> fitted column order
}

// Fit classifies every column of db and fits histograms where needed.
//
// Fitting is per-table independent: a column's plan depends only on its
// own table's data and the options. Fit(db) is therefore exactly
// Merge(FitTable(t1), FitTable(t2), ...), which is what lets the staged
// pipeline re-fit only the tables whose content changed.
func Fit(db *dataset.Database, opts Options) (*Model, error) {
	m := newModel(opts)
	for _, t := range db.Tables {
		if err := m.fitTable(t); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// FitTable fits a model covering a single table. Combine per-table
// models with Merge to reassemble the equivalent of a whole-database
// Fit.
func FitTable(t *dataset.Table, opts Options) (*Model, error) {
	m := newModel(opts)
	if err := m.fitTable(t); err != nil {
		return nil, err
	}
	return m, nil
}

func newModel(opts Options) *Model {
	return &Model{
		opts:  opts.withDefaults(),
		plans: make(map[string]map[string]*ColumnPlan),
		order: make(map[string][]string),
	}
}

func (m *Model) fitTable(t *dataset.Table) error {
	cols := make(map[string]*ColumnPlan, t.NumCols())
	names := make([]string, 0, t.NumCols())
	for _, c := range t.Columns {
		p, err := planColumn(t.Name, c, m.opts)
		if err != nil {
			return err
		}
		cols[c.Name] = p
		names = append(names, c.Name)
	}
	m.plans[t.Name] = cols
	m.order[t.Name] = names
	return nil
}

// Merge combines per-table models (from FitTable, or decoded cache
// artifacts) into one model equivalent to fitting their union in one
// Fit call. The parts must cover disjoint tables and share the same
// fitted options — merging models fitted under different options would
// tokenize tables inconsistently, so it is rejected.
func Merge(parts ...*Model) (*Model, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("textify: merge of zero models")
	}
	m := newModel(parts[0].opts)
	optsFP := parts[0].opts.Fingerprint()
	for _, p := range parts {
		if p.opts.Fingerprint() != optsFP {
			return nil, fmt.Errorf("textify: merge of models fitted under different options")
		}
		for table, cols := range p.plans {
			if _, dup := m.plans[table]; dup {
				return nil, fmt.Errorf("textify: merge: table %q fitted by more than one model", table)
			}
			m.plans[table] = cols
			m.order[table] = p.order[table]
		}
	}
	return m, nil
}

// Columns returns the fitted column order for table, or nil if the
// table is unknown to the model. Serving-time callers that receive rows
// as unordered key/value maps use this to tokenize columns in the same
// order as the fitted table scan, which keeps floating-point feature
// sums bit-identical to the offline path. Models decoded from bundles
// written before the order was recorded fall back to lexical order.
func (m *Model) Columns(table string) []string {
	if names, ok := m.order[table]; ok {
		return names
	}
	cols, ok := m.plans[table]
	if !ok {
		return nil
	}
	names := make([]string, 0, len(cols))
	for n := range cols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Tables returns the fitted table names in lexical order.
func (m *Model) Tables() []string {
	names := make([]string, 0, len(m.plans))
	for n := range m.plans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Plan returns the fitted plan for a column, or nil if unknown.
func (m *Model) Plan(table, column string) *ColumnPlan {
	cols, ok := m.plans[table]
	if !ok {
		return nil
	}
	return cols[column]
}

func planColumn(table string, c *dataset.Column, opts Options) (*ColumnPlan, error) {
	p := &ColumnPlan{Table: table, Column: c.Name}
	var (
		floats      []float64
		times       []float64
		strs        []string
		nonNull     int
		allNumeric  = true
		allIntegers = true
		allTimes    = true
	)
	for _, v := range c.Values {
		if v.IsNull() {
			continue
		}
		nonNull++
		switch v.Kind {
		case dataset.KindNumber:
			floats = append(floats, v.Num)
			if v.Num != float64(int64(v.Num)) {
				allIntegers = false
			}
			allTimes = false
		case dataset.KindTime:
			times = append(times, v.Num)
			allNumeric = false
		case dataset.KindString:
			allNumeric = false
			if ts, ok := parseTime(v.Str); ok {
				times = append(times, float64(ts.Unix()))
			} else {
				allTimes = false
			}
			strs = append(strs, v.Str)
		}
	}
	switch {
	case nonNull == 0:
		p.Type = TypeString // empty column; transform emits nothing
	case allNumeric && len(floats) == nonNull:
		classifyNumeric(p, c, floats, allIntegers, opts)
	case allTimes && len(times) == nonNull:
		p.Type = TypeDateTime
		kind := stats.EquiWidth
		if opts.ForceHistogram != nil {
			kind = *opts.ForceHistogram
		} else {
			kind = stats.ChooseKind(times)
		}
		h, err := stats.NewHistogram(kind, opts.BinCount, times)
		if err != nil {
			return nil, fmt.Errorf("textify: %s.%s: %w", table, c.Name, err)
		}
		p.Hist = h
	default:
		classifyString(p, c, strs, opts)
	}
	return p, nil
}

func classifyNumeric(p *ColumnPlan, c *dataset.Column, floats []float64, allIntegers bool, opts Options) {
	if allIntegers {
		distinct := make(map[float64]struct{}, len(floats))
		for _, f := range floats {
			distinct[f] = struct{}{}
		}
		ratio := float64(len(distinct)) / float64(len(floats))
		if ratio >= opts.KeyUniqueRatio {
			p.Type = TypeKey
			return
		}
		if len(distinct) <= opts.DirectIntCardinality {
			p.Type = TypeCategoricalInt
			return
		}
	}
	p.Type = TypeNumeric
	kind := stats.EquiWidth
	if opts.ForceHistogram != nil {
		kind = *opts.ForceHistogram
	} else {
		kind = stats.ChooseKind(floats)
	}
	// NewHistogram cannot fail here: bins>0 and data is non-empty.
	h, _ := stats.NewHistogram(kind, opts.BinCount, floats)
	p.Hist = h
}

func classifyString(p *ColumnPlan, c *dataset.Column, strs []string, opts Options) {
	if sep, ok := detectSeparator(strs, opts); ok {
		p.Type = TypeStringList
		p.Separator = sep
		return
	}
	if c.UniqueRatio() >= opts.KeyUniqueRatio {
		p.Type = TypeKey
		return
	}
	p.Type = TypeString
}

func detectSeparator(strs []string, opts Options) (string, bool) {
	if len(strs) == 0 {
		return "", false
	}
	for _, sep := range opts.ListSeparators {
		n, elems := 0, 0
		for _, s := range strs {
			if strings.Contains(s, sep) {
				n++
				elems += strings.Count(s, sep) + 1
			}
		}
		frac := float64(n) / float64(len(strs))
		if frac >= opts.ListFraction && n > 0 && float64(elems)/float64(n) >= 2 {
			return sep, true
		}
	}
	return "", false
}

var timeLayouts = []string{
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02",
	"01/02/2006",
	"2006/01/02",
}

// parseTime tries each of timeLayouts on s. Every layout begins with a
// numeric field that time.Parse reads only from ASCII digits, so a cell
// that starts any other way is rejected before five doomed parses
// (each of which allocates its *time.ParseError).
func parseTime(s string) (time.Time, bool) {
	if len(s) < 8 || len(s) > 35 || s[0] < '0' || s[0] > '9' {
		return time.Time{}, false
	}
	for _, layout := range timeLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

// NormalizeToken canonicalizes a raw string token: trimmed and
// lower-cased so that syntactically identical values collide regardless
// of capitalization.
func NormalizeToken(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// BinToken renders a histogram bin as the paper's "attribute#bin" token.
func BinToken(attr string, bin int) string {
	return NormalizeToken(attr) + "#" + strconv.Itoa(bin)
}

// TokenizedTable is the textified form of one table: for every row and
// column, zero or more string tokens (lists emit several, nulls none).
type TokenizedTable struct {
	Table string
	Attrs []string
	// Cells[row][col] holds the tokens for that cell.
	Cells [][][]string
}

// NumRows returns the number of textified rows.
func (t *TokenizedTable) NumRows() int { return len(t.Cells) }

// Transform textifies a table using the fitted plans. The table must
// have been present (by name) when the model was fitted; its columns are
// matched by name, so transforming a row-subset or reordered copy works.
func (m *Model) Transform(t *dataset.Table) (*TokenizedTable, error) {
	out, cols, err := m.planTransform(t)
	if err != nil {
		return nil, err
	}
	for j := range t.Columns {
		transformColumn(out, t.Columns[j], j, cols[j])
	}
	return out, nil
}

// planTransform allocates the output table and resolves each column's
// fitted plan, so transforms can fan out with all fallible lookups
// already done.
func (m *Model) planTransform(t *dataset.Table) (*TokenizedTable, []*ColumnPlan, error) {
	plans, ok := m.plans[t.Name]
	if !ok {
		return nil, nil, fmt.Errorf("textify: no fitted plan for table %q", t.Name)
	}
	out := &TokenizedTable{Table: t.Name, Attrs: t.ColumnNames()}
	n := t.NumRows()
	out.Cells = make([][][]string, n)
	for i := 0; i < n; i++ {
		out.Cells[i] = make([][]string, t.NumCols())
	}
	cols := make([]*ColumnPlan, len(t.Columns))
	for j, c := range t.Columns {
		p, ok := plans[c.Name]
		if !ok {
			return nil, nil, fmt.Errorf("textify: table %q has no fitted plan for column %q", t.Name, c.Name)
		}
		cols[j] = p
	}
	return out, cols, nil
}

// transformColumn fills column j of the tokenized table. Each column
// writes a disjoint slot of every row, so distinct columns can be
// textified concurrently with no synchronization and a bit-identical
// result at any worker count.
func transformColumn(out *TokenizedTable, c *dataset.Column, j int, p *ColumnPlan) {
	for i, v := range c.Values {
		out.Cells[i][j] = textifyValue(v, p)
	}
}

// TransformAll textifies every table of a database, fanning the work
// out over GOMAXPROCS workers (see TransformAllWorkers).
func (m *Model) TransformAll(db *dataset.Database) ([]*TokenizedTable, error) {
	return m.TransformAllWorkers(db, 0)
}

// TransformAllWorkers is TransformAll with an explicit worker count
// (<= 0 means GOMAXPROCS). Work is sharded at column granularity across
// all tables, so one wide or long table still saturates the pool. The
// output is identical to the sequential path at every worker count:
// fitted plans are read-only and every (table, column) job writes its
// own cells.
func (m *Model) TransformAllWorkers(db *dataset.Database, workers int) ([]*TokenizedTable, error) {
	out := make([]*TokenizedTable, len(db.Tables))
	type job struct {
		col  *dataset.Column
		out  *TokenizedTable
		j    int
		plan *ColumnPlan
	}
	var jobs []job
	for ti, t := range db.Tables {
		tt, cols, err := m.planTransform(t)
		if err != nil {
			return nil, err
		}
		out[ti] = tt
		for j := range t.Columns {
			jobs = append(jobs, job{col: t.Columns[j], out: tt, j: j, plan: cols[j]})
		}
	}
	parallel.ForEach(len(jobs), workers, func(k int) {
		jb := jobs[k]
		transformColumn(jb.out, jb.col, jb.j, jb.plan)
	})
	return out, nil
}

// TextifyValue renders one cell under a plan; it is exported for the
// deployment stage, which must tokenize unseen test rows identically.
func (m *Model) TextifyValue(table, column string, v dataset.Value) ([]string, error) {
	p := m.Plan(table, column)
	if p == nil {
		return nil, fmt.Errorf("textify: no plan for %s.%s", table, column)
	}
	return textifyValue(v, p), nil
}

func textifyValue(v dataset.Value, p *ColumnPlan) []string {
	if v.IsNull() {
		return nil
	}
	switch p.Type {
	case TypeNumeric, TypeDateTime:
		f, ok := v.Float()
		if !ok {
			// A non-numeric value in a numeric column (for
			// example a dirty "?" marker) passes through as a
			// plain string token for the voting stage to handle.
			return []string{NormalizeToken(v.Text())}
		}
		return []string{BinToken(p.Column, p.Hist.Bin(f))}
	case TypeStringList:
		if v.Kind != dataset.KindString {
			return []string{NormalizeToken(v.Text())}
		}
		parts := strings.Split(v.Str, p.Separator)
		toks := make([]string, 0, len(parts))
		for _, part := range parts {
			if tok := NormalizeToken(part); tok != "" {
				toks = append(toks, tok)
			}
		}
		return toks
	default: // TypeKey, TypeCategoricalInt, TypeString
		if tok := NormalizeToken(v.Text()); tok != "" {
			return []string{tok}
		}
		return nil
	}
}
