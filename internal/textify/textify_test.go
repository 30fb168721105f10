package textify

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func forceEquiDepth() *stats.HistogramKind {
	k := stats.EquiDepth
	return &k
}

func fitSingle(t *testing.T, col *dataset.Column, opts Options) (*Model, *dataset.Table) {
	t.Helper()
	tab := &dataset.Table{Name: "t", Columns: []*dataset.Column{col}}
	m, err := Fit(dataset.NewDatabase(tab), opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, tab
}

func col(name string, vals ...dataset.Value) *dataset.Column {
	return &dataset.Column{Name: name, Values: vals}
}

func TestKeyDetectionStringColumn(t *testing.T) {
	vals := make([]dataset.Value, 100)
	for i := range vals {
		vals[i] = dataset.String(fmt.Sprintf("id_%03d", i))
	}
	m, _ := fitSingle(t, col("id", vals...), Options{})
	if p := m.Plan("t", "id"); p.Type != TypeKey {
		t.Errorf("unique string column classified %v, want key", p.Type)
	}
}

func TestKeyDetectionIntegerColumn(t *testing.T) {
	vals := make([]dataset.Value, 100)
	for i := range vals {
		vals[i] = dataset.Int(i)
	}
	m, _ := fitSingle(t, col("id", vals...), Options{})
	if p := m.Plan("t", "id"); p.Type != TypeKey {
		t.Errorf("unique int column classified %v, want key", p.Type)
	}
}

func TestFloatColumnNeverKey(t *testing.T) {
	vals := make([]dataset.Value, 100)
	for i := range vals {
		vals[i] = dataset.Number(float64(i) + 0.5)
	}
	m, _ := fitSingle(t, col("score", vals...), Options{})
	if p := m.Plan("t", "score"); p.Type != TypeNumeric {
		t.Errorf("float column classified %v, want numeric", p.Type)
	}
}

func TestCategoricalIntFKPath(t *testing.T) {
	// A non-unique integer FK column must be encoded directly so that
	// inclusion dependencies against a numeric key survive.
	vals := make([]dataset.Value, 200)
	for i := range vals {
		vals[i] = dataset.Int(i % 40)
	}
	m, tab := fitSingle(t, col("ref", vals...), Options{})
	if p := m.Plan("t", "ref"); p.Type != TypeCategoricalInt {
		t.Fatalf("int FK column classified %v, want categorical-int", p.Type)
	}
	tt, err := m.Transform(tab)
	if err != nil {
		t.Fatal(err)
	}
	if got := tt.Cells[41][0]; len(got) != 1 || got[0] != "1" {
		t.Errorf("direct int encoding = %v, want [1]", got)
	}
}

func TestNumericBinningToken(t *testing.T) {
	vals := make([]dataset.Value, 500)
	for i := range vals {
		vals[i] = dataset.Number(float64(i%100) + 0.25)
	}
	m, tab := fitSingle(t, col("amount", vals...), Options{BinCount: 10})
	tt, err := m.Transform(tab)
	if err != nil {
		t.Fatal(err)
	}
	tok := tt.Cells[0][0][0]
	if !strings.HasPrefix(tok, "amount#") {
		t.Errorf("bin token = %q", tok)
	}
	// Same value -> same token; far value -> different token.
	if tt.Cells[0][0][0] != tt.Cells[100][0][0] {
		t.Error("equal values got different bin tokens")
	}
	if tt.Cells[0][0][0] == tt.Cells[99][0][0] {
		t.Error("far values shared a bin token with 10 bins")
	}
}

func TestDatetimeDetection(t *testing.T) {
	vals := []dataset.Value{
		dataset.String("2020-01-01"), dataset.String("2020-06-15"),
		dataset.String("2021-01-01"), dataset.String("2021-06-15"),
		dataset.String("2022-01-01"),
	}
	m, _ := fitSingle(t, col("day", vals...), Options{})
	if p := m.Plan("t", "day"); p.Type != TypeDateTime {
		t.Errorf("date strings classified %v, want datetime", p.Type)
	}
}

func TestStringListDetection(t *testing.T) {
	vals := []dataset.Value{
		dataset.String("a, b, c"), dataset.String("b, d"),
		dataset.String("a, c"), dataset.String("d, e, f"),
	}
	m, tab := fitSingle(t, col("tags", vals...), Options{})
	p := m.Plan("t", "tags")
	if p.Type != TypeStringList || p.Separator != "," {
		t.Fatalf("list column classified %v sep=%q", p.Type, p.Separator)
	}
	tt, err := m.Transform(tab)
	if err != nil {
		t.Fatal(err)
	}
	if got := tt.Cells[0][0]; len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("list tokens = %v", got)
	}
}

func TestNullsEmitNoTokensAndDirtyMarkersPass(t *testing.T) {
	vals := []dataset.Value{
		dataset.Null(), dataset.String("?"), dataset.String("x"), dataset.String("x"),
	}
	m, tab := fitSingle(t, col("c", vals...), Options{})
	tt, err := m.Transform(tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Cells[0][0]) != 0 {
		t.Errorf("null produced tokens: %v", tt.Cells[0][0])
	}
	if got := tt.Cells[1][0]; len(got) != 1 || got[0] != "?" {
		t.Errorf("dirty marker tokens = %v (must pass through for voting)", got)
	}
}

func TestNormalizeToken(t *testing.T) {
	if NormalizeToken("  WashINGton ") != "washington" {
		t.Error("NormalizeToken failed")
	}
}

func TestTransformUnknownTable(t *testing.T) {
	m, _ := fitSingle(t, col("a", dataset.String("x")), Options{})
	if _, err := m.Transform(dataset.NewTable("other", "a")); err == nil {
		t.Error("unknown table transformed")
	}
}

func TestTextifyValueMatchesTransform(t *testing.T) {
	vals := make([]dataset.Value, 100)
	for i := range vals {
		vals[i] = dataset.Number(float64(i%50) + 0.5)
	}
	m, tab := fitSingle(t, col("n", vals...), Options{BinCount: 7})
	tt, err := m.Transform(tab)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i += 13 {
		direct, err := m.TextifyValue("t", "n", vals[i])
		if err != nil {
			t.Fatal(err)
		}
		if direct[0] != tt.Cells[i][0][0] {
			t.Errorf("row %d: TextifyValue %v != Transform %v", i, direct, tt.Cells[i][0])
		}
	}
	// Unseen value quantizes through the fitted histogram (clamped).
	toks, err := m.TextifyValue("t", "n", dataset.Number(1e9))
	if err != nil || len(toks) != 1 || !strings.HasPrefix(toks[0], "n#") {
		t.Errorf("unseen value tokens = %v, %v", toks, err)
	}
}

func TestForceHistogramOverride(t *testing.T) {
	kind := forceEquiDepth()
	vals := make([]dataset.Value, 100)
	for i := range vals {
		vals[i] = dataset.Number(float64(i) + 0.5)
	}
	m, _ := fitSingle(t, col("v", vals...), Options{ForceHistogram: kind})
	if p := m.Plan("t", "v"); p.Hist.Kind.String() != "equi-depth" {
		t.Errorf("forced histogram kind = %v", p.Hist.Kind)
	}
}

func TestEmptyColumnEmitsNothing(t *testing.T) {
	m, tab := fitSingle(t, col("e", dataset.Null(), dataset.Null()), Options{})
	tt, err := m.Transform(tab)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tt.Cells {
		if len(tt.Cells[i][0]) != 0 {
			t.Errorf("empty column produced tokens at row %d", i)
		}
	}
}

func TestMixedColumnFallsBackToString(t *testing.T) {
	// A column mixing numbers and text is treated as string.
	vals := []dataset.Value{
		dataset.Number(1), dataset.String("abc"), dataset.Number(2), dataset.String("abc"),
	}
	m, _ := fitSingle(t, col("mix", vals...), Options{})
	if p := m.Plan("t", "mix"); p.Type != TypeString {
		t.Errorf("mixed column classified %v", p.Type)
	}
}

func TestDatetimeLayouts(t *testing.T) {
	cases := []string{
		"2021-03-04T05:06:07Z",
		"2021-03-04 05:06:07",
		"2021-03-04",
		"03/04/2021",
		"2021/03/04",
	}
	for _, c := range cases {
		if _, ok := parseTime(c); !ok {
			t.Errorf("layout %q not parsed", c)
		}
	}
	for _, bad := range []string{"hello", "12", "2021-13-99", ""} {
		if _, ok := parseTime(bad); ok {
			t.Errorf("non-date %q parsed", bad)
		}
	}
}

// TestParseTimeFastPathAgrees: rejecting cells that do not start with
// an ASCII digit never changes an answer the five full parses would
// give, whatever the first byte is.
func TestParseTimeFastPathAgrees(t *testing.T) {
	full := func(s string) (time.Time, bool) {
		if len(s) < 8 || len(s) > 35 {
			return time.Time{}, false
		}
		for _, layout := range timeLayouts {
			if ts, err := time.Parse(layout, s); err == nil {
				return ts, true
			}
		}
		return time.Time{}, false
	}
	cases := []string{
		// Every layout, parsed.
		"2006-01-02T15:04:05Z", "2006-01-02T15:04:05+07:00", "2006-01-02T15:04:05.999-03:30",
		"2006-01-02 15:04:05", "2006-01-02", "01/02/2006", "2006/01/02", "0001-01-01", "9999-12-31",
		// Near misses starting with a digit.
		"2006-13-02", "2006-01-32", "2006-01-02x", "1/02/2006", "01/02/06", "2006-1-02",
		"2006-01-02T15:04:05", "2006-01-02 15:04", "20060102", "12345678", "2006.01.02",
		// Leading non-digits: signs, space, letters, punctuation.
		"+2006-01-02", "-2006-01-02", " 2006-01-02", "\t2006-01-02", "x2006-01-02",
		"T2006-01-02", "/01/02/2006", ".2006-01-02", "abcdefgh", "hello world",
		// Non-ASCII digits (fullwidth, Arabic-Indic, Devanagari).
		"２００６-01-02", "٢٠٠٦-01-02", "२००६-01-02", "\u00a02006-01-02", "\xff2006-01-02",
		// Length bounds.
		"", "2006-1-2", "1/2/2006", "2006-01-02T15:04:05.123456789+07:00", "2006-01-02T15:04:05.1234567890+07:00",
	}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)})+"006-01-02")
	}
	for _, s := range cases {
		wantT, wantOK := full(s)
		gotT, gotOK := parseTime(s)
		if gotOK != wantOK || !gotT.Equal(wantT) || gotT.String() != wantT.String() {
			t.Errorf("parseTime(%q) = %v, %v; full parse = %v, %v", s, gotT, gotOK, wantT, wantOK)
		}
	}
}

func TestListColumnNumericElementsKeepTokens(t *testing.T) {
	vals := []dataset.Value{
		dataset.String("1, 2, 3"), dataset.String("2, 3"),
		dataset.String("1, 3"), dataset.String("3, 4, 5"),
	}
	m, tab := fitSingle(t, col("nums", vals...), Options{})
	p := m.Plan("t", "nums")
	if p.Type != TypeStringList {
		t.Fatalf("classified %v", p.Type)
	}
	tt, err := m.Transform(tab)
	if err != nil {
		t.Fatal(err)
	}
	if got := tt.Cells[0][0]; len(got) != 3 || got[1] != "2" {
		t.Errorf("tokens = %v", got)
	}
	// A non-string value in a list column degrades gracefully.
	toks, err := m.TextifyValue("t", "nums", dataset.Number(7))
	if err != nil || len(toks) != 1 || toks[0] != "7" {
		t.Errorf("non-string in list column: %v, %v", toks, err)
	}
}

// Property: numeric textification always yields exactly one well-formed
// bin token for any finite value.
func TestNumericTokenProperty(t *testing.T) {
	vals := make([]dataset.Value, 60)
	for i := range vals {
		vals[i] = dataset.Number(float64(i*i) + 0.5)
	}
	m, _ := fitSingle(t, col("v", vals...), Options{BinCount: 9})
	f := func(x float64) bool {
		if x != x || x > 1e300 || x < -1e300 {
			return true
		}
		toks, err := m.TextifyValue("t", "v", dataset.Number(x))
		return err == nil && len(toks) == 1 && strings.HasPrefix(toks[0], "v#")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
