// Command bench is the repository benchmark. It builds leva, levad and
// levagen from the checkout, generates seeded inputs with levagen, and
// drives the real binaries from outside: `leva embed` as a timed
// subprocess, and levad over loopback HTTP with open-loop load. Run it
// from the repository root through bench/run.sh:
//
//	bash bench/run.sh -workload featurize-zipf -seed 1
//	bash bench/run.sh -workload mixed-reload -seed 2 -trace
//	bash bench/run.sh -workload neighbors-vector -seed 1 -runs 5 -out .bench_build/new
//	bash bench/run.sh -summarize -o new.json .bench_build/new/records.jsonl
//	bash bench/run.sh -compare bench/results/BENCH_baseline.json new.json
//
// Each run prints its full record as one JSON line, a table on stderr,
// and, as the last line of stdout, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
// or with -trace the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// env is one run's settings and paths.
type env struct {
	root    string
	dir     string // working directory of this run, removed afterwards
	out     string // where records and trace files go
	bins    bins
	pins    map[string]string
	wl      workloadDef
	seed    int64
	scale   float64
	seconds float64
	trace   bool
}

// phaseSummary is one load phase in the record.
type phaseSummary struct {
	Name      string  `json:"name"`
	Rate      float64 `json:"rate"`
	Requests  int     `json:"requests"`
	Failed    int     `json:"failed"`
	Achieved  float64 `json:"achieved"`
	LateP99us float64 `json:"gen_late_p99_us"`
	P99ms     float64 `json:"lat_p99_ms"`
	Valid     bool    `json:"valid"`
}

// record is everything one run measured and checked.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Run      int                `json:"run"`
	Traced   bool               `json:"traced"`
	Seconds  float64            `json:"seconds"`
	Metrics  map[string]float64 `json:"metrics"`
	Samples  map[string]int     `json:"samples"`
	Ops      struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
	} `json:"ops"`
	Checks  map[string]bool `json:"checks"`
	Phases  []phaseSummary  `json:"phases,omitempty"`
	Notes   []string        `json:"notes,omitempty"`
	Machine machine         `json:"machine"`
}

func newRecord(e *env, run int, m machine) *record {
	return &record{Workload: e.wl.Name, Seed: e.seed, Run: run, Traced: e.trace, Seconds: e.seconds,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Checks: map[string]bool{}, Machine: m}
}

// set records a metric with its sample count. A value that cannot be
// computed (no samples) is recorded as 0 with a note.
func (r *record) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("%s not measurable (%v over %d samples); reported as 0", name, v, n)
		v = 0
	}
	r.Metrics[name] = v
	r.Samples[name] = n
}

// check ANDs ok into the named correctness check.
func (r *record) check(name string, ok bool) {
	prev, seen := r.Checks[name]
	r.Checks[name] = ok && (prev || !seen)
}

func (r *record) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *record) phase(p *phaseResult) {
	late, _ := percentile(sortedCopy(p.late), 0.99)
	p99, _ := p.latP(0.99)
	if math.IsInf(p99, 1) {
		p99 = -1
	}
	r.Phases = append(r.Phases, phaseSummary{Name: p.name, Rate: p.rate, Requests: p.n, Failed: p.failed,
		Achieved: p.achieved, LateP99us: late, P99ms: p99, Valid: p.valid()})
}

func (r *record) correct() bool {
	for _, ok := range r.Checks {
		if !ok {
			return false
		}
	}
	return r.Ops.Failed == 0
}

// machine identifies where a record was measured.
type machine struct {
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	OS     string `json:"os"`
	Commit string `json:"commit"`
}

func detectMachine(root string) machine {
	m := machine{NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The ceiling keeps git from reporting an enclosing repository's
	// commit when the checkout itself is not a git work tree.
	git := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := git.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

var runners = map[string]func(*env, *record) error{
	"embed-restbase":   runEmbed,
	"featurize-zipf":   runFeaturize,
	"neighbors-vector": runNeighbors,
	"mixed-reload":     runMixed,
}

// normalizeArgs accepts "-trace 0" and "-trace 1" (with one or two
// dashes) as well as the bare boolean flag.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	if err := mainErr(normalizeArgs(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	root := fs.String("root", "..", "repository root (the checkout under test)")
	workload := fs.String("workload", "", "workload to run: embed-restbase, featurize-zipf, neighbors-vector, mixed-reload")
	seed := fs.Int64("seed", 1, "workload seed: the inputs are a function of it (1 is the default, 2 is held out)")
	seconds := fs.Float64("seconds", 10, "length of the measured rate_lo phase; the other phases scale with it")
	runs := fs.Int("runs", 1, "runs to make; the result line reports each metric's median over them")
	trace := fs.Bool("trace", false, "traced run: also measure the per-layer metrics and write a span file")
	out := fs.String("out", "", "directory for records.jsonl and trace files (default .bench_build/out)")
	compare := fs.Bool("compare", false, "compare two summaries: -compare old.json new.json")
	summarize := fs.Bool("summarize", false, "summarize records.jsonl files: -summarize -o out.json records.jsonl...")
	summaryOut := fs.String("o", "", "output file of -summarize")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare wants two summary files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *summarize:
		if *summaryOut == "" || fs.NArg() == 0 {
			return errors.New("-summarize wants -o <file> and at least one records file")
		}
		return summarizeFiles(*summaryOut, fs.Args())
	}

	wl, ok := workloadByName(*workload)
	if !ok {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *runs < 1 || *seconds <= 0 {
		return errors.New("-runs and -seconds must be positive")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	stopDaemonsOnSignal()
	if *out == "" {
		*out = filepath.Join(absRoot, ".bench_build", "out")
	}
	b, err := buildBinaries(absRoot, filepath.Join(absRoot, ".bench_build", "bin"))
	if err != nil {
		return err
	}
	pins, err := readPins(filepath.Join(absRoot, "bench", "testdata", "inputs.sha256"))
	if err != nil {
		return err
	}
	m := detectMachine(absRoot)
	var recs []*record
	for i := 1; i <= *runs; i++ {
		e := &env{root: absRoot, out: *out, bins: b, pins: pins, wl: wl, seed: *seed,
			scale: inputScale, seconds: *seconds, trace: *trace}
		r, err := runOnce(e, i, m)
		if err != nil {
			return err
		}
		recs = append(recs, r)
	}
	return printResult(os.Stdout, recs, *trace)
}

// runOnce runs the workload once in a fresh working directory and emits
// its record.
func runOnce(e *env, run int, m machine) (*record, error) {
	var err error
	if err = os.MkdirAll(filepath.Join(e.root, ".bench_build", "runs"), 0o755); err != nil {
		return nil, err
	}
	e.dir, err = os.MkdirTemp(filepath.Join(e.root, ".bench_build", "runs"), e.wl.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	r := newRecord(e, run, m)
	if err := runners[e.wl.Name](e, r); err != nil {
		return nil, fmt.Errorf("%s seed %d run %d: %w", e.wl.Name, e.seed, run, err)
	}
	if e.trace {
		// A metric this workload cannot produce, such as a scraped
		// counter on embed-restbase, which runs no levad, is reported
		// as 0 with no samples.
		for _, m := range perLayer {
			if _, ok := r.Metrics[m.Name]; !ok {
				r.Metrics[m.Name], r.Samples[m.Name] = 0, 0
			}
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(e.out, "records.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	printTable(r)
	return r, nil
}

// printTable writes a run's metrics with units and sample counts to
// stderr.
func printTable(r *record) {
	fmt.Fprintf(os.Stderr, "bench: %s seed %d run %d: %d attempted, %d failed, correct %v\n",
		r.Workload, r.Seed, r.Run, r.Ops.Attempted, r.Ops.Failed, r.correct())
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit := ""
		if d, ok := metricByName(n); ok {
			unit = d.Unit
		}
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %-8s n=%d\n", n, r.Metrics[n], unit, r.Samples[n])
	}
	for _, p := range r.Phases {
		fmt.Fprintf(os.Stderr, "  phase %-16s %6.0f req/s offered, %8.1f achieved, %6d sent, %d failed, gen late p99 %.0f us, valid %v\n",
			p.Name, p.Rate, p.Achieved, p.Requests, p.Failed, p.LateP99us, p.Valid)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
}

// printResult writes the result object as the last stdout line: each
// catalog metric's median over the runs.
func printResult(w *os.File, recs []*record, trace bool) error {
	set := endToEnd
	if trace {
		set = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range recs {
		res.Correct = res.Correct && r.correct()
		res.Attempted += r.Ops.Attempted
		res.Failed += r.Ops.Failed
	}
	for _, m := range set {
		var vs []float64
		for _, r := range recs {
			v, ok := r.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("workload %s did not report %s", recs[0].Workload, m.Name)
			}
			vs = append(vs, v)
		}
		res.Metrics[m.Name] = value{Value: median(vs), Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
