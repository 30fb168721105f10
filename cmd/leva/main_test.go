package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	leva "repro"
	"repro/internal/core"
	"repro/internal/durable"
)

// writeTestCSVs lays out a small joinable database on disk.
func writeTestCSVs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	orders := "order_id,customer,amount,label\n"
	customers := "customer,segment\n"
	for i := 0; i < 80; i++ {
		seg, label := "retail", "small"
		if i%2 == 0 {
			seg, label = "wholesale", "big"
		}
		orders += fmt.Sprintf("o%03d,c%02d,%d.5,%s\n", i, i%20, 10+i%7, label)
		if i < 20 {
			customers += fmt.Sprintf("c%02d,%s\n", i, seg)
		}
	}
	mustWrite(t, filepath.Join(dir, "orders.csv"), orders)
	mustWrite(t, filepath.Join(dir, "customers.csv"), customers)
	return dir
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunEmbedWritesTSV(t *testing.T) {
	dir := writeTestCSVs(t)
	out := filepath.Join(t.TempDir(), "emb.tsv")
	err := runEmbed([]string{"-data", dir, "-out", out, "-dim", "8", "-method", "mf"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 50 {
		t.Fatalf("embedding has %d lines", len(lines))
	}
	first := strings.SplitN(lines[0], "\t", 2)
	if len(first) != 2 || len(strings.Fields(first[1])) != 8 {
		t.Fatalf("malformed line %q", lines[0])
	}
}

// TestRunEmbedStageLine: the stage line parses as key=value pairs, a
// time and a heap peak per stage.
func TestRunEmbedStageLine(t *testing.T) {
	dir := writeTestCSVs(t)
	out := filepath.Join(t.TempDir(), "emb.tsv")
	text := captureStdout(t, func() {
		if err := runEmbed([]string{"-data", dir, "-out", out, "-dim", "8", "-method", "mf", "-no-cache"}); err != nil {
			t.Fatal(err)
		}
	})
	var line string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "stage timings: ") {
			line = l
		}
	}
	var ms [3]float64
	var peak [3]uint64
	n, err := fmt.Sscanf(line, "stage timings: textify_ms=%f textify_heap_peak_bytes=%d graph_ms=%f graph_heap_peak_bytes=%d embed_ms=%f embed_heap_peak_bytes=%d",
		&ms[0], &peak[0], &ms[1], &peak[1], &ms[2], &peak[2])
	if n != 6 || err != nil {
		t.Fatalf("stage line %q parsed %d fields: %v", line, n, err)
	}
	if ms[2] <= 0 {
		t.Errorf("stage line %q: embed took no time", line)
	}
}

func TestRunEmbedMissingFlags(t *testing.T) {
	if err := runEmbed(nil); err == nil {
		t.Error("missing -data accepted")
	}
}

func TestRunTrainClassification(t *testing.T) {
	dir := writeTestCSVs(t)
	err := runTrain([]string{"-data", dir, "-base", "orders", "-target", "label",
		"-dim", "8", "-method", "mf"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunEmbedThenApplyBundle(t *testing.T) {
	dir := writeTestCSVs(t)
	bundle := filepath.Join(t.TempDir(), "bundle")
	out := filepath.Join(t.TempDir(), "emb.tsv")
	if err := runEmbed([]string{"-data", dir, "-out", out, "-bundle", bundle,
		"-dim", "8", "-method", "mf"}); err != nil {
		t.Fatal(err)
	}
	feats := filepath.Join(t.TempDir(), "features.tsv")
	if err := runApply([]string{"-bundle", bundle, "-data", dir,
		"-table", "orders", "-exclude", "label", "-out", feats}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(feats)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 80 {
		t.Fatalf("feature rows = %d, want 80", len(lines))
	}
	fields := strings.Fields(strings.SplitN(lines[0], "\t", 2)[1])
	if len(fields) != 16 { // row+value at dim 8
		t.Fatalf("feature width = %d, want 16", len(fields))
	}
}

// TestRunBundleInfoAndConvert drives the bundle maintenance command end
// to end: info on a freshly embedded bundle, on the committed fixture
// and on the committed version-5 bundle, which it refuses; and convert,
// which upgraded bundles this build no longer reads, is an unknown
// subcommand that writes nothing.
func TestRunBundleInfoAndConvert(t *testing.T) {
	dir := writeTestCSVs(t)
	bundle := filepath.Join(t.TempDir(), "bundle")
	out := filepath.Join(t.TempDir(), "emb.tsv")
	if err := runEmbed([]string{"-data", dir, "-out", out, "-bundle", bundle,
		"-dim", "8", "-method", "mf"}); err != nil {
		t.Fatal(err)
	}

	text := captureStdout(t, func() {
		if err := runBundle([]string{"info", bundle}); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{"version 6", "binary (bundle.bin)", "arena 4200)", "verified against", "orders:", "customers:"} {
		if !strings.Contains(text, want) {
			t.Errorf("bundle info output missing %q:\n%s", want, text)
		}
	}

	fixture := filepath.Join("..", "..", "internal", "core", "testdata", "v6-dim6")
	text = captureStdout(t, func() {
		if err := runBundle([]string{"info", fixture}); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{fmt.Sprintf("version %d", leva.BundleFormatVersion), "279 entities x 6 dims", "arena 6704)"} {
		if !strings.Contains(text, want) {
			t.Errorf("fixture bundle info output missing %q:\n%s", want, text)
		}
	}
	v5 := filepath.Join("..", "..", "internal", "core", "testdata", "v5-quant-dim4")
	if err := runBundle([]string{"info", v5}); !errors.Is(err, core.ErrVersion) ||
		!strings.Contains(err.Error(), filepath.Join(v5, durable.ManifestName)) {
		t.Errorf("info on a version-5 bundle: err = %v, want ErrVersion naming its manifest", err)
	}

	converted := filepath.Join(t.TempDir(), "converted")
	if err := runBundle([]string{"convert", "-in", fixture, "-out", converted}); err == nil ||
		!strings.Contains(err.Error(), `unknown subcommand "convert"`) {
		t.Errorf("bundle convert: err = %v, want an unknown subcommand", err)
	}
	if _, err := os.Stat(converted); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("bundle convert left %s behind (stat: %v)", converted, err)
	}
	if err := runBundle([]string{"nonsense"}); err == nil {
		t.Error("unknown bundle subcommand accepted")
	}
	if err := runBundle(nil); err == nil {
		t.Error("bare bundle command accepted")
	}
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunApplyErrors(t *testing.T) {
	if err := runApply(nil); err == nil {
		t.Error("missing flags accepted")
	}
	dir := writeTestCSVs(t)
	if err := runApply([]string{"-bundle", t.TempDir(), "-data", dir, "-table", "orders"}); err == nil {
		t.Error("empty bundle accepted")
	}
}

func TestRunTrainErrors(t *testing.T) {
	dir := writeTestCSVs(t)
	if err := runTrain([]string{"-data", dir, "-base", "nope", "-target", "x"}); err == nil {
		t.Error("unknown base accepted")
	}
	if err := runTrain([]string{"-data", dir, "-base", "orders", "-target", "nope"}); err == nil {
		t.Error("unknown target accepted")
	}
	if err := runTrain(nil); err == nil {
		t.Error("missing flags accepted")
	}
}

// TestRunEmbedCacheWarm runs embed twice against one cache directory
// and checks the warm output is byte-identical, plus -no-cache still
// works.
func TestRunEmbedCacheWarm(t *testing.T) {
	dir := writeTestCSVs(t)
	tmp := t.TempDir()
	cache := filepath.Join(tmp, "cache")
	cold := filepath.Join(tmp, "cold.tsv")
	warm := filepath.Join(tmp, "warm.tsv")
	args := []string{"-data", dir, "-dim", "8", "-method", "mf", "-cache", cache}
	if err := runEmbed(append([]string{"-out", cold}, args...)); err != nil {
		t.Fatal(err)
	}
	if err := runEmbed(append([]string{"-out", warm}, args...)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("warm cached embed differs from cold embed")
	}
	if _, err := os.Stat(filepath.Join(cache, "embed")); err != nil {
		t.Errorf("cache has no embed stage entries: %v", err)
	}

	off := filepath.Join(tmp, "off.tsv")
	if err := runEmbed(append([]string{"-out", off, "-no-cache"}, args...)); err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(off)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Fatal("-no-cache embed differs from cached embed")
	}
}

// TestResolveCacheDir pins the -cache/-no-cache resolution rules.
func TestResolveCacheDir(t *testing.T) {
	if got := resolveCacheDir("d", "", false); got != filepath.Join("d", ".leva-cache") {
		t.Errorf("default = %q", got)
	}
	if got := resolveCacheDir("d", "elsewhere", false); got != "elsewhere" {
		t.Errorf("explicit = %q", got)
	}
	if got := resolveCacheDir("d", "elsewhere", true); got != "" {
		t.Errorf("-no-cache = %q", got)
	}
}

// runCapturingStderr runs fn with os.Stderr redirected into a pipe and
// returns what fn wrote there.
func runCapturingStderr(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	captured := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		captured <- b
	}()
	os.Stderr = w
	runErr := fn()
	w.Close()
	os.Stderr = old
	text := string(<-captured)
	if runErr != nil {
		t.Fatal(runErr)
	}
	return text
}

// TestRunEmbedMetricsDump runs embed with -metrics-dump and requires
// the Prometheus rendering of the build registry on stderr, with the
// stage-duration histogram fed by the same clock readings Timings
// reports.
func TestRunEmbedMetricsDump(t *testing.T) {
	dir := writeTestCSVs(t)
	out := filepath.Join(t.TempDir(), "emb.tsv")
	text := runCapturingStderr(t, func() error {
		return runEmbed([]string{"-data", dir, "-out", out, "-dim", "8",
			"-method", "mf", "-no-cache", "-metrics-dump"})
	})
	for _, want := range []string{
		"# TYPE leva_build_stage_duration_seconds histogram",
		`leva_build_stage_duration_seconds_count{stage="embed"} 1`,
		"leva_builds_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("-metrics-dump output missing %q", want)
		}
	}
}

// TestRunTrainMetricsDump runs train with -metrics-dump: the build's
// three stages are each observed once, and the featurization of the
// train and test rows reaches the same stage histogram and the row
// counter.
func TestRunTrainMetricsDump(t *testing.T) {
	dir := writeTestCSVs(t)
	text := runCapturingStderr(t, func() error {
		return runTrain([]string{"-data", dir, "-base", "orders", "-target", "label",
			"-dim", "8", "-method", "mf", "-no-cache", "-metrics-dump"})
	})
	for _, stage := range []string{"textify", "graph", "embed"} {
		want := `leva_build_stage_duration_seconds_count{stage="` + stage + `"} 1`
		if !strings.Contains(text, want+"\n") {
			t.Errorf("-metrics-dump output missing %q", want)
		}
	}
	for _, series := range []string{
		`leva_build_stage_duration_seconds_count{stage="featurize"}`,
		"leva_build_featurized_rows_total",
	} {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`).FindStringSubmatch(text)
		if m == nil {
			t.Errorf("-metrics-dump output missing %s", series)
			continue
		}
		if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
			t.Errorf("%s = %s, want > 0", series, m[1])
		}
	}
}

// TestRunEmbedQuantize: `leva embed -quantize` is not a flag any more
// (the bundle has no quant section to write, and levad -quantize
// quantizes the index it loads), so embed exits with a usage error. The
// flag set exits the process, so the refusal runs in a child process.
func TestRunEmbedQuantize(t *testing.T) {
	if os.Getenv("LEVA_TEST_EMBED_QUANTIZE") != "" {
		dir := t.TempDir()
		_ = runEmbed([]string{"-data", writeTestCSVs(t), "-out", filepath.Join(dir, "emb.tsv"),
			"-bundle", filepath.Join(dir, "bundle"), "-quantize", "-dim", "8", "-no-cache"})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunEmbedQuantize$")
	cmd.Env = append(os.Environ(), "LEVA_TEST_EMBED_QUANTIZE=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("embed -quantize: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -quantize") {
		t.Errorf("embed -quantize output does not name the flag:\n%s", out)
	}
}
