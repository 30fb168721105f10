package main

import (
	"os"
	"path/filepath"
	"testing"
)

// smokeEnv builds the binaries once and returns a factory of tiny-scale
// run environments with 1 s phases.
func smokeEnv(t *testing.T) func(t *testing.T, wl workloadDef, trace bool) (*env, machine) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	b, err := buildBinaries(root, filepath.Join(tmp, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	pins, err := readPins("testdata/inputs.sha256")
	if err != nil {
		t.Fatal(err)
	}
	m := detectMachine(root)
	return func(t *testing.T, wl workloadDef, trace bool) (*env, machine) {
		return &env{root: root, dir: t.TempDir(), out: filepath.Join(tmp, "out"), bins: b, pins: pins,
			wl: wl, seed: 1, scale: 0.02, seconds: 1, trace: trace}, m
	}
}

// TestSmoke runs every workload end to end at tiny scale, oracles
// included: every served answer that was sampled must equal the
// in-process recomputation, and every end-to-end metric must be
// reported and non-zero.
func TestSmoke(t *testing.T) {
	newEnv := smokeEnv(t)
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			e, m := newEnv(t, wl, false)
			r := newRecord(e, 1, m)
			if err := runners[wl.Name](e, r); err != nil {
				t.Fatal(err)
			}
			if !r.correct() || r.Ops.Attempted == 0 {
				t.Fatalf("run not correct: %d attempted, %d failed, checks %v, notes %q",
					r.Ops.Attempted, r.Ops.Failed, r.Checks, r.Notes)
			}
			for _, md := range endToEnd {
				if v, ok := r.Metrics[md.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v (reported %v), want a positive value", md.Name, v, ok)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced variant of the offline and the
// reload workload, which between them reach every in-process layer,
// and checks that between them they measure every per-layer metric and
// that each writes its span file.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs add a max_rps search and an in-process replay")
	}
	newEnv := smokeEnv(t)
	measured := map[string]bool{}
	for _, name := range []string{"embed-restbase", "mixed-reload"} {
		t.Run(name, func(t *testing.T) {
			wl, _ := workloadByName(name)
			e, m := newEnv(t, wl, true)
			r := newRecord(e, 1, m)
			if err := runners[name](e, r); err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("run not correct: checks %v, notes %q", r.Checks, r.Notes)
			}
			for k := range r.Metrics {
				measured[k] = true
			}
			for _, md := range []string{"core.featurize_row_us", "serve.handler_p50_us", "ann.search_us", "ann.build_ms"} {
				if r.Metrics[md] <= 0 {
					t.Errorf("%s = %v, want a positive value", md, r.Metrics[md])
				}
			}
			if name == "mixed-reload" && (r.Metrics["reload_p50_ms"] <= 0 || r.Metrics["max_rps"] <= 0) {
				t.Errorf("reload p50 %v, max_rps %v: want both measured", r.Metrics["reload_p50_ms"], r.Metrics["max_rps"])
			}
			if _, err := os.Stat(filepath.Join(e.out, "trace-"+name+"-1.jsonl")); err != nil {
				t.Error(err)
			}
		})
	}
	for _, md := range perLayer {
		if !measured[md.Name] {
			t.Errorf("per-layer metric %s measured by neither traced run", md.Name)
		}
	}
}
