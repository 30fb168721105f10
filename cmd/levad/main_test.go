package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/embed"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestDaemonEndToEnd drives the whole lifecycle in process: build and
// save a bundle, start the daemon on an ephemeral port, hit /healthz
// and /v1/featurize, verify the served features match offline
// featurization byte for byte, then deliver a real SIGTERM and require
// a clean drained exit.
func TestDaemonEndToEnd(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 9})
	res, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 6, Seed: 9, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}

	readyFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-bundle", dir,
			"-addr", "127.0.0.1:0",
			"-ready-file", readyFile,
			"-quiet",
		})
	}()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if data, err := os.ReadFile(readyFile); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
	}
	if addr == "" {
		t.Fatal("daemon never wrote the ready file")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	base := spec.DB.Table(spec.BaseTable)
	want, err := res.Featurize(base.SelectRows([]int{0}), spec.BaseTable,
		[]string{spec.Target}, func(int) int { return -1 })
	if err != nil {
		t.Fatal(err)
	}
	row := map[string]any{}
	for _, c := range base.Columns {
		switch v := c.Values[0]; v.Kind {
		case 1: // KindString
			row[c.Name] = v.Str
		default:
			row[c.Name] = v.Num
		}
	}
	body, _ := json.Marshal(map[string]any{
		"table":   spec.BaseTable,
		"rows":    []any{row},
		"exclude": []string{spec.Target},
	})
	resp, err = http.Post("http://"+addr+"/v1/featurize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Features [][]float64 `json:"features"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("featurize: status %d", resp.StatusCode)
	}
	if len(out.Features) != 1 || len(out.Features[0]) != len(want[0]) {
		t.Fatalf("featurize shape: %d x %d, want 1 x %d", len(out.Features), len(out.Features[0]), len(want[0]))
	}
	for j := range want[0] {
		if out.Features[0][j] != want[0][j] {
			t.Fatalf("feature %d: served %v != offline %v", j, out.Features[0][j], want[0][j])
		}
	}

	// SIGTERM → graceful drain → clean exit. run installed its signal
	// handler before serving, so the test binary survives the signal.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of SIGTERM")
	}
}

// TestDaemonHotReloadOnSIGHUP republishes the bundle directory in place
// (SaveBundle's atomic swap), delivers a real SIGHUP, and requires the
// daemon to serve the new embedding without restarting.
func TestDaemonHotReloadOnSIGHUP(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 9})
	resA, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 6, Seed: 9, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 6, Seed: 10, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := resA.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}

	readyFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-bundle", dir, "-addr", "127.0.0.1:0", "-ready-file", readyFile, "-quiet",
		})
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if data, err := os.ReadFile(readyFile); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
	}
	if addr == "" {
		t.Fatal("daemon never wrote the ready file")
	}

	featurize := func() []float64 {
		base := spec.DB.Table(spec.BaseTable)
		row := map[string]any{}
		for _, c := range base.Columns {
			switch v := c.Values[0]; v.Kind {
			case 1: // KindString
				row[c.Name] = v.Str
			default:
				row[c.Name] = v.Num
			}
		}
		body, _ := json.Marshal(map[string]any{
			"table": spec.BaseTable, "rows": []any{row}, "exclude": []string{spec.Target},
		})
		resp, err := http.Post("http://"+addr+"/v1/featurize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Features [][]float64 `json:"features"`
		}
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
			t.Fatalf("featurize: status %d", resp.StatusCode)
		}
		return out.Features[0]
	}
	offline := func(res *core.Result) []float64 {
		base := spec.DB.Table(spec.BaseTable)
		want, err := res.Featurize(base.SelectRows([]int{0}), spec.BaseTable,
			[]string{spec.Target}, func(int) int { return -1 })
		if err != nil {
			t.Fatal(err)
		}
		return want[0]
	}
	eq := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	if !eq(featurize(), offline(resA)) {
		t.Fatal("pre-reload serving does not match bundle A")
	}
	// Publish bundle B into the same directory (atomic directory swap),
	// then signal the running daemon.
	if err := resB.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	wantB := offline(resB)
	swapped := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if eq(featurize(), wantB) {
			swapped = true
			break
		}
	}
	if !swapped {
		t.Fatal("daemon never served bundle B after SIGHUP")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of SIGTERM")
	}
}

// TestRunRefusesCorruptBundle flips one byte of the embedding file and
// requires startup to fail with an error naming it.
func TestRunRefusesCorruptBundle(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 20, Seed: 7})
	res, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 4, Seed: 7, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bundle.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-bundle", dir, "-addr", "127.0.0.1:0", "-quiet"})
	if err == nil {
		t.Fatal("daemon started on a corrupt bundle")
	}
	if !strings.Contains(err.Error(), "bundle.bin") {
		t.Errorf("startup error does not name the corrupt file: %v", err)
	}
}

// TestRunRefusesVersion1Index: an index directory saved in the
// version-1 format (committed in internal/ann/testdata) is refused at
// startup with an error that says how to rebuild it.
func TestRunRefusesVersion1Index(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 20, Seed: 7})
	res, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 4, Seed: 7, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("..", "..", "internal", "ann", "testdata", "index-v1")
	indexDir := filepath.Join(t.TempDir(), "index")
	if err := os.MkdirAll(indexDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ann.IndexFileName, "MANIFEST.json"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(indexDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err = run(context.Background(), []string{"-bundle", dir, "-index", indexDir, "-addr", "127.0.0.1:0", "-quiet"})
	if err == nil {
		t.Fatal("daemon started on a version-1 index")
	}
	if !errors.Is(err, ann.ErrVersion) || !strings.Contains(err.Error(), "leva embed -index") {
		t.Errorf("startup error = %v, want ErrVersion naming `leva embed -index`", err)
	}
}

// corruptBundle republishes dir's bundle.bin, by rename, with one byte
// flipped, so it fails its SHA-256 check against the manifest.
func corruptBundle(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "bundle.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := durable.WriteFile(durable.OS(), path, data); err != nil {
		t.Fatal(err)
	}
}

// corruptIndex republishes dir's index.bin, by rename, short of its
// last 8 bytes, with a manifest that records the short file: the
// SHA-256 check passes and Decode refuses it with ann.ErrCorrupt.
func corruptIndex(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, ann.IndexFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := durable.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-8]
	m.Files = nil
	m.Add(ann.IndexFileName, data)
	if err := durable.WriteFile(durable.OS(), path, data); err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteManifest(durable.OS(), dir, m); err != nil {
		t.Fatal(err)
	}
}

// TestRunRefusesEitherFailedLoad: the bundle and the index load
// concurrently, so startup can fail on either side or on both. Each
// way, run returns an error naming every failed side, and the side
// that did load leaves no mapping behind.
func TestRunRefusesEitherFailedLoad(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 20, Seed: 7})
	res, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 4, Seed: 7, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ann.Build(res.Embedding, ann.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		bundle, index bool
	}{
		{"index corrupt", false, true},
		{"bundle corrupt", true, false},
		{"both corrupt", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, indexDir := t.TempDir(), filepath.Join(t.TempDir(), "index")
			if err := res.SaveBundle(dir); err != nil {
				t.Fatal(err)
			}
			if err := ix.Save(indexDir); err != nil {
				t.Fatal(err)
			}
			if c.bundle {
				corruptBundle(t, dir)
			}
			if c.index {
				corruptIndex(t, indexDir)
			}
			err := run(context.Background(), []string{"-bundle", dir, "-index", indexDir, "-addr", "127.0.0.1:0", "-quiet"})
			if err == nil {
				t.Fatal("daemon started on a corrupt generation")
			}
			if got := strings.Contains(err.Error(), "bundle.bin fails its SHA-256 check"); got != c.bundle {
				t.Errorf("error names the corrupt bundle.bin = %v, want %v: %v", got, c.bundle, err)
			}
			if got := errors.Is(err, ann.ErrCorrupt); got != c.index {
				t.Errorf("errors.Is(err, ann.ErrCorrupt) = %v, want %v: %v", got, c.index, err)
			}
			if b, x := fileMappings(t, dir), fileMappings(t, indexDir); b != 0 || x != 0 {
				t.Errorf("%d bundle and %d index mappings after the refused start, want 0 and 0", b, x)
			}
		})
	}
}

// TestRunRefusesUnknownChaosTarget: a -chaos rule for a target the
// server never consults would arm nothing, so startup refuses it with
// the named error instead.
func TestRunRefusesUnknownChaosTarget(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 20, Seed: 7})
	res, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 4, Seed: 7, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	// Were the rule accepted, the daemon would serve until ctx expires
	// and run would return nil.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = run(ctx, []string{"-bundle", dir, "-addr", "127.0.0.1:0", "-quiet",
		"-chaos", "seed=1;rowcache:err=1"})
	if !errors.Is(err, serve.ErrUnknownChaosTarget) || !strings.Contains(err.Error(), `"rowcache"`) {
		t.Errorf("startup error = %v, want ErrUnknownChaosTarget naming rowcache", err)
	}
}

func TestRunRejectsMissingBundle(t *testing.T) {
	if err := run(context.Background(), []string{}); err == nil {
		t.Error("run without -bundle succeeded")
	}
	if err := run(context.Background(), []string{"-bundle", filepath.Join(t.TempDir(), "nope")}); err == nil {
		t.Error("run with nonexistent bundle succeeded")
	}
}

// TestDaemonDebugEndpoints starts the daemon with -debug-addr and
// checks the second listener: /debug/vars returns the metric registry
// as JSON and the pprof index answers. The debug address is published
// to <ready-file>.debug before the main ready file appears.
func TestDaemonDebugEndpoints(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 20, Seed: 5})
	res, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 4, Seed: 5, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}

	readyFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-bundle", dir,
			"-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0",
			"-ready-file", readyFile,
			"-quiet",
		})
	}()
	var addr, debugAddr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if data, err := os.ReadFile(readyFile); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
	}
	if addr == "" {
		t.Fatal("daemon never wrote the ready file")
	}
	if data, err := os.ReadFile(readyFile + ".debug"); err != nil {
		t.Fatalf("debug ready file: %v", err)
	} else {
		debugAddr = string(data)
	}

	resp, err := http.Get("http://" + debugAddr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"leva_bundle_generation", "leva_http_requests_total", "leva_go_goroutines"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	if gen, ok := vars["leva_bundle_generation"].(float64); !ok || gen != 1 {
		t.Errorf("leva_bundle_generation = %v, want 1", vars["leva_bundle_generation"])
	}

	resp, err = http.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", resp.StatusCode)
	}

	// The main listener serves Prometheus text now; spot-check one
	// family so the two exposition surfaces agree.
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "leva_bundle_generation 1") {
		t.Error("/metrics text exposition missing leva_bundle_generation 1")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of SIGTERM")
	}
}

// TestDaemonQuantizedServing: -quantize serves /v1/neighbors from the
// int8 arena (healthz reports it) while /v1/featurize keeps answering
// from the float arena, and -quantize without -index is refused.
func TestDaemonQuantizedServing(t *testing.T) {
	if err := run(context.Background(), []string{"-bundle", t.TempDir(), "-quantize"}); err == nil ||
		!strings.Contains(err.Error(), "-index") {
		t.Fatalf("-quantize without -index: err = %v, want a refusal naming -index", err)
	}

	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 9})
	res, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 6, Seed: 9, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	res.Quant = embed.Quantize(res.Embedding.Matrix())
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	ix, err := ann.Build(res.Embedding, ann.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	indexDir := t.TempDir()
	if err := ix.Save(indexDir); err != nil {
		t.Fatal(err)
	}

	addr, cancel, done := startDaemon(t, "-bundle", dir, "-index", indexDir, "-quantize")
	defer cancel()

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["quantized"] != true {
		t.Errorf("healthz quantized = %v, want true", hz["quantized"])
	}
	if qb, ok := hz["quantBytes"].(float64); !ok || qb <= 0 {
		t.Errorf("healthz quantBytes = %v, want > 0", hz["quantBytes"])
	}

	token := res.Embedding.Names()[0]
	resp, err = http.Get("http://" + addr + "/v1/neighbors?token=" + token + "&k=3")
	if err != nil {
		t.Fatal(err)
	}
	var nb struct {
		Neighbors []struct {
			Token string  `json:"token"`
			Score float64 `json:"score"`
		} `json:"neighbors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&nb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(nb.Neighbors) != 3 {
		t.Fatalf("neighbors: status %d, %d results", resp.StatusCode, len(nb.Neighbors))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of context cancel")
	}
}

// startDaemon runs the daemon in process with args plus an ephemeral
// address and a ready file, and returns its address, a cancel that
// starts the drain, and the channel run's result arrives on.
func startDaemon(t *testing.T, args ...string) (addr string, cancel context.CancelFunc, done <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	readyFile := filepath.Join(t.TempDir(), "addr")
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, append(args, "-addr", "127.0.0.1:0", "-ready-file", readyFile, "-quiet"))
	}()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if data, err := os.ReadFile(readyFile); err == nil && len(data) > 0 {
			return string(data), cancel, errc
		}
		select {
		case err := <-errc:
			cancel()
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
	}
	cancel()
	t.Fatal("daemon never wrote the ready file")
	return "", nil, nil
}

// fileMappings counts this process's mappings of the file at path.
func fileMappings(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps on this platform: %v", err)
	}
	return strings.Count(string(data), path)
}

// fetch returns the status and body of a GET (body "") or POST.
func fetch(t *testing.T, target, body string) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(target)
	} else {
		resp, err = http.Post(target, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestDaemonMMapIndexAnswersLikeLoad: levad started with no -mmap
// flag, with -mmap and with -mmap=false, each with and without
// -quantize, answers /v1/neighbors, by token and by raw vector, exactly
// like the same index read with ann.Load, and answers /v1/featurize and
// /v1/embedding with the same bytes however it loaded its files. The
// default and -mmap hold one mapping each of bundle.bin and index.bin
// while serving (on a platform that maps at all), -mmap=false holds
// none, and no mapping survives the drain.
func TestDaemonMMapIndexAnswersLikeLoad(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 30, Seed: 9})
	res, err := core.BuildEmbedding(spec.DB, core.Config{Dim: 6, Seed: 9, Method: embed.MethodMF})
	if err != nil {
		t.Fatal(err)
	}
	res.Quant = embed.Quantize(res.Embedding.Matrix())
	dir := t.TempDir()
	if err := res.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	built, err := ann.Build(res.Embedding, ann.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	indexDir := filepath.Join(t.TempDir(), "index")
	if err := built.Save(indexDir); err != nil {
		t.Fatal(err)
	}
	bundleBin := filepath.Join(dir, "bundle.bin")
	indexBin := filepath.Join(indexDir, ann.IndexFileName)
	mapped := 0
	if durable.MapSupported {
		mapped = 1
	}
	base := spec.DB.Table(spec.BaseTable)
	row := map[string]any{}
	for _, c := range base.Columns {
		switch v := c.Values[0]; v.Kind {
		case 1: // KindString
			row[c.Name] = v.Str
		default:
			row[c.Name] = v.Num
		}
	}
	featBody := mustJSON(t, map[string]any{"table": spec.BaseTable, "rows": []any{row}, "exclude": []string{spec.Target}})
	embToken := res.Embedding.Names()[0]

	for _, quantize := range []bool{false, true} {
		want, err := ann.Load(indexDir)
		if err != nil {
			t.Fatal(err)
		}
		if quantize {
			if err := want.Quantize(res.Quant); err != nil {
				t.Fatal(err)
			}
		}
		// The first daemon's featurize and embedding bodies; the other
		// two must match them byte for byte.
		var firstFeat, firstEmb []byte
		for _, c := range []struct {
			flags []string
			maps  int
		}{
			{nil, mapped},
			{[]string{"-mmap"}, mapped},
			{[]string{"-mmap=false"}, 0},
		} {
			name := fmt.Sprintf("flags=%v quantize=%v", c.flags, quantize)
			args := append([]string{"-bundle", dir, "-index", indexDir}, c.flags...)
			if quantize {
				args = append(args, "-quantize")
			}
			addr, cancel, done := startDaemon(t, args...)
			if b, x := fileMappings(t, bundleBin), fileMappings(t, indexBin); b != c.maps || x != c.maps {
				t.Errorf("%s: %d mappings of bundle.bin and %d of index.bin while serving, want %d each", name, b, x, c.maps)
			}
			for i, token := range want.Names() {
				if i%5 != 0 {
					continue
				}
				vec, _ := res.Embedding.Vector(token)
				byName, err := want.SearchName(token, 4, 0)
				if err != nil {
					t.Fatal(err)
				}
				byVector, err := want.SearchVector(vec, 4, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range []struct {
					body string
					want []ann.Result
				}{
					{mustJSON(t, map[string]any{"token": token, "k": 4}), byName},
					{mustJSON(t, map[string]any{"vector": vec, "k": 4}), byVector},
				} {
					status, body := fetch(t, "http://"+addr+"/v1/neighbors", q.body)
					var out struct {
						Neighbors []struct {
							Token string  `json:"token"`
							Score float64 `json:"score"`
						} `json:"neighbors"`
					}
					err := json.Unmarshal(body, &out)
					if err != nil || status != http.StatusOK || len(out.Neighbors) != len(q.want) {
						t.Fatalf("%s %s: status %d, %d results, err %v", name, q.body, status, len(out.Neighbors), err)
					}
					for j, n := range out.Neighbors {
						if n.Token != q.want[j].Name || n.Score != q.want[j].Score {
							t.Errorf("%s %s: neighbor %d = %s/%v, ann.Load answers %s/%v",
								name, q.body, j, n.Token, n.Score, q.want[j].Name, q.want[j].Score)
						}
					}
				}
			}
			status, feat := fetch(t, "http://"+addr+"/v1/featurize", featBody)
			if status != http.StatusOK {
				t.Fatalf("%s: featurize status %d: %s", name, status, feat)
			}
			status, emb := fetch(t, "http://"+addr+"/v1/embedding/"+url.PathEscape(embToken), "")
			if status != http.StatusOK {
				t.Fatalf("%s: embedding status %d: %s", name, status, emb)
			}
			if firstFeat == nil {
				firstFeat, firstEmb = feat, emb
			} else if !bytes.Equal(feat, firstFeat) || !bytes.Equal(emb, firstEmb) {
				t.Errorf("%s: featurize or embedding body differs from the no-flag daemon's:\n%s%s\nvs\n%s%s",
					name, feat, emb, firstFeat, firstEmb)
			}
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: daemon exit after cancel: %v", name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: daemon did not exit within 10s of context cancel", name)
			}
			if b, x := fileMappings(t, bundleBin), fileMappings(t, indexBin); b != 0 || x != 0 {
				t.Errorf("%s: %d mappings of bundle.bin and %d of index.bin after the drain, want 0", name, b, x)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
