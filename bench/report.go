package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricSummary is one end-to-end metric of one workload over a set of
// runs.
type metricSummary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Spread  float64   `json:"spread"`
	Values  []float64 `json:"values"`
	Samples []int     `json:"samples"`
}

// layerValue is one per-layer metric of a traced run.
type layerValue struct {
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

type workloadSummary struct {
	Rates     map[string]float64       `json:"rates,omitempty"`
	Seeds     []int64                  `json:"seeds"`
	Runs      int                      `json:"runs"`
	Seconds   float64                  `json:"seconds"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	// Timings are the everyRun per-layer metrics the untraced runs
	// measured, judged against timingBound.
	Timings    map[string]metricSummary `json:"timings"`
	TracedSeed int64                    `json:"traced_seed,omitempty"`
	PerLayer   map[string]layerValue    `json:"per_layer,omitempty"`
}

// summary is a BENCH_*.json file: medians and quartiles of untraced
// runs per workload plus one traced run's per-layer numbers.
type summary struct {
	Machine   machine                     `json:"machine"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		r := &record{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func summarizeFiles(out string, inputs []string) error {
	var recs []*record
	for _, in := range inputs {
		rs, err := readRecords(in)
		if err != nil {
			return err
		}
		recs = append(recs, rs...)
	}
	s, err := summarize(recs)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// summarize groups records by workload. Untraced runs give the
// distribution of the end-to-end metrics and of the everyRun timings;
// the first traced run gives the per-layer numbers.
func summarize(recs []*record) (*summary, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("no records")
	}
	s := &summary{Machine: recs[0].Machine, Workloads: map[string]*workloadSummary{}}
	for _, r := range recs {
		if !r.correct() {
			return nil, fmt.Errorf("%s seed %d run %d failed its checks; a summary holds only correct runs", r.Workload, r.Seed, r.Run)
		}
		ws := s.Workloads[r.Workload]
		if ws == nil {
			ws = &workloadSummary{EndToEnd: map[string]metricSummary{}, Timings: map[string]metricSummary{}, Seconds: r.Seconds}
			if wl, ok := workloadByName(r.Workload); ok && wl.RateLo > 0 {
				ws.Rates = map[string]float64{"rate_lo": wl.RateLo, "rate_hi": wl.RateHi, "max_rps_lo": wl.MaxLo, "max_rps_hi": wl.MaxHi}
			}
			s.Workloads[r.Workload] = ws
		}
		if r.Traced {
			if ws.PerLayer == nil {
				ws.TracedSeed = r.Seed
				ws.PerLayer = map[string]layerValue{}
				for _, m := range perLayer {
					ws.PerLayer[m.Name] = layerValue{Unit: m.Unit, Value: r.Metrics[m.Name], Samples: r.Samples[m.Name]}
				}
			}
			continue
		}
		ws.Runs++
		ws.Seeds = append(ws.Seeds, r.Seed)
		ws.Attempted += r.Ops.Attempted
		ws.Failed += r.Ops.Failed
		add := func(into map[string]metricSummary, m metricDef) {
			ms := into[m.Name]
			ms.Unit, ms.Better, ms.Bound = m.Unit, m.Better, m.Bound
			ms.Values = append(ms.Values, r.Metrics[m.Name])
			ms.Samples = append(ms.Samples, r.Samples[m.Name])
			into[m.Name] = ms
		}
		for _, m := range endToEnd {
			add(ws.EndToEnd, m)
		}
		for _, name := range everyRun {
			if _, ok := r.Metrics[name]; ok {
				m, _ := metricByName(name)
				m.Bound = timingBound
				add(ws.Timings, m)
			}
		}
	}
	for _, ws := range s.Workloads {
		for _, set := range []map[string]metricSummary{ws.EndToEnd, ws.Timings} {
			for name, ms := range set {
				ms.Median = median(ms.Values)
				ms.Q1, ms.Q3 = quartiles(ms.Values)
				ms.Spread = spread(ms.Values)
				set[name] = ms
			}
		}
	}
	return s, nil
}

func readSummary(path string) (*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &summary{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readSummary(oldPath)
	if err != nil {
		return err
	}
	cur, err := readSummary(newPath)
	if err != nil {
		return err
	}
	compare(w, old, cur)
	return nil
}

// verdict classifies one metric x workload pair, following the
// choosing-metrics rules: a median worse by more than the bound is a
// regression; when either side's run-to-run spread exceeds the bound
// the pair is unresolved, unless every new run beats every old run; a
// gain needs the medians to differ by more than the old runs' spread.
func verdict(old, cur metricSummary) string {
	worse := func(a, b float64) bool { // a worse than b
		if old.Better == "higher" {
			return a < b
		}
		return a > b
	}
	allBetter := len(old.Values) > 0 && len(cur.Values) > 0
	for _, n := range cur.Values {
		for _, o := range old.Values {
			if !worse(o, n) {
				allBetter = false
			}
		}
	}
	// by is the relative worsening of the median (negative: improvement).
	by := (cur.Median - old.Median) / math.Abs(old.Median)
	if old.Better == "higher" {
		by = -by
	}
	switch {
	case allBetter:
		return "better"
	case math.Max(old.Spread, cur.Spread) > old.Bound:
		return "unresolved"
	case by > old.Bound:
		return "worse"
	case -by > old.Spread:
		return "better"
	default:
		return "same"
	}
}

// compare prints one row per end-to-end metric x workload present in
// both summaries, then the same rows for the everyRun timings, then the
// traced runs' per-layer deltas.
func compare(w io.Writer, old, cur *summary) {
	if old.Machine.NProc != cur.Machine.NProc || old.Machine.CPU != cur.Machine.CPU {
		fmt.Fprintf(w, "warning: machines differ: %d x %s vs %d x %s\n",
			old.Machine.NProc, old.Machine.CPU, cur.Machine.NProc, cur.Machine.CPU)
	}
	names := make([]string, 0, len(old.Workloads))
	for n := range old.Workloads {
		if cur.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-17s %-13s %12s %12s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "old median", "new median", "delta", "bound", "spread0", "spread1", "verdict")
	rows := func(set func(*workloadSummary) map[string]metricSummary, metrics []string) {
		for _, wl := range names {
			for _, name := range metrics {
				o, ok1 := set(old.Workloads[wl])[name]
				c, ok2 := set(cur.Workloads[wl])[name]
				if !ok1 || !ok2 {
					continue
				}
				fmt.Fprintf(w, "%-17s %-13s %12.4f %12.4f %+7.1f%% %6.0f%% %6.1f%% %6.1f%%  %s\n",
					wl, name, o.Median, c.Median, 100*(c.Median-o.Median)/math.Abs(o.Median),
					100*o.Bound, 100*o.Spread, 100*c.Spread, verdict(o, c))
			}
		}
	}
	var e2e []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.Name)
	}
	rows(func(ws *workloadSummary) map[string]metricSummary { return ws.EndToEnd }, e2e)
	fmt.Fprintf(w, "\ntimings of every run (per-layer metrics, judged against the %.0f%% timing bound):\n", 100*timingBound)
	rows(func(ws *workloadSummary) map[string]metricSummary { return ws.Timings }, everyRun)
	fmt.Fprintln(w, "\nper-layer (one traced run each; no bound):")
	for _, wl := range names {
		ol, cl := old.Workloads[wl].PerLayer, cur.Workloads[wl].PerLayer
		if ol == nil || cl == nil {
			continue
		}
		for _, m := range perLayer {
			o, c := ol[m.Name], cl[m.Name]
			d := "n/a"
			if o.Value != 0 {
				d = fmt.Sprintf("%+.1f%%", 100*(c.Value-o.Value)/math.Abs(o.Value))
			}
			fmt.Fprintf(w, "%-17s %-28s %14.4f %14.4f %8s %s\n", wl, m.Name, o.Value, c.Value, d, m.Unit)
		}
	}
}
