package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the metric
// and workload tables in this package identical, and both within the
// limits of the BENCHMARK.json format.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		switch k {
		case "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer":
		default:
			t.Errorf("unexpected key %q", k)
		}
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}

	var wantWl []string
	for _, w := range workloads {
		wantWl = append(wantWl, w.Name+"\x00"+w.Why)
	}
	var gotWl []string
	for _, w := range f.Workloads {
		gotWl = append(gotWl, w.Name+"\x00"+w.Why)
	}
	if !reflect.DeepEqual(gotWl, wantWl) {
		t.Errorf("workloads differ from catalog.go:\n got %q\nwant %q", gotWl, wantWl)
	}
	var want, got []metricDef
	for _, m := range f.EndToEnd {
		got = append(got, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end differs from catalog.go:\n got %+v\nwant %+v", got, endToEnd)
	}
	got = nil
	for _, m := range f.PerLayer {
		got = append(got, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	want = perLayer
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs from catalog.go:\n got %+v\nwant %+v", got, want)
	}

	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || !reflect.DeepEqual(f.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %q, paths %q", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or repeated", name)
		}
		seen[name] = true
	}
	for _, w := range f.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	setup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (unit s, lower) is missing")
	}
	for _, m := range endToEnd {
		if m.Name != "setup_s" && m.Bound > bound("setup_s") {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, name := range everyRun {
		if m, ok := metricByName(name); !ok || m.Bound != 0 {
			t.Errorf("every-run timing %s is not a per-layer metric", name)
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

// TestCheckPins: a pinned (dataset, scale, seed) must generate exactly
// the pinned CSVs with the pinned hashes; an unpinned one passes.
func TestCheckPins(t *testing.T) {
	pins := map[string]string{
		inputKey("restbase", 0.3, 1, "a.csv"):  "aa",
		inputKey("restbase", 0.3, 1, "b.csv"):  "bb",
		inputKey("restbase", 0.3, 11, "c.csv"): "cc", // must not count toward seed 1
	}
	for _, tc := range []struct {
		name string
		seed int64
		sums map[string]string
		ok   bool
	}{
		{"exact", 1, map[string]string{"a.csv": "aa", "b.csv": "bb"}, true},
		{"changed", 1, map[string]string{"a.csv": "aa", "b.csv": "xx"}, false},
		{"missing", 1, map[string]string{"a.csv": "aa"}, false},
		{"extra", 1, map[string]string{"a.csv": "aa", "b.csv": "bb", "d.csv": "dd"}, false},
		{"renamed", 1, map[string]string{"a.csv": "aa", "b2.csv": "bb"}, false},
		{"unpinned seed", 5, map[string]string{"a.csv": "anything"}, true},
	} {
		err := checkPins(pins, "restbase", 0.3, tc.seed, tc.sums)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkPins = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

func bound(name string) float64 {
	m, _ := metricByName(name)
	return m.Bound
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace", "0", "-trace"})
	want := []string{"--workload", "x", "-trace=1", "--seed", "3", "-trace=0", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}
