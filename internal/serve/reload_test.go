package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/matrix"
)

// altFixture builds a second bundle over the same schema as fixture()
// but a different seed: identical dim and feature width (so it passes
// reload validation) with different vector values (so tests can tell
// which bundle served a response).
var (
	altOnce sync.Once
	altRes  *core.Result
	altErr  error
)

func altFixture(t testing.TB) *core.Result {
	t.Helper()
	fixture(t) // ensure fixtureSpec exists
	altOnce.Do(func() {
		altRes, altErr = core.BuildEmbedding(fixtureSpec.DB, core.Config{
			Dim: 8, Seed: 23, Method: embed.MethodMF, UnseenFallbackDims: 3,
		})
	})
	if altErr != nil {
		t.Fatal(altErr)
	}
	return altRes
}

// featurizeOnce posts one fixed row and returns its feature vector.
func featurizeOnce(t *testing.T, url string) []float64 {
	t.Helper()
	_, _, sp := fixture(t)
	body := mustJSON(map[string]any{
		"table":   sp.BaseTable,
		"rows":    []any{jsonRow(sp.DB.Table(sp.BaseTable), 0)},
		"exclude": []string{sp.Target},
	})
	resp, err := http.Post(url+"/v1/featurize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("featurize status %d", resp.StatusCode)
	}
	var out featurizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Features[0]
}

func vecEqual(a, b []float64) bool {
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

// offlineVec featurizes row 0 of the base table through res directly —
// the ground truth for "which bundle produced this response".
func offlineVec(t *testing.T, res *core.Result) []float64 {
	t.Helper()
	_, _, spec := fixture(t)
	base := spec.DB.Table(spec.BaseTable)
	want, err := res.Featurize(base.SelectRows([]int{0}), spec.BaseTable,
		[]string{spec.Target}, func(int) int { return -1 })
	if err != nil {
		t.Fatal(err)
	}
	return want[0]
}

func TestReloadSwapsBundleAtomically(t *testing.T) {
	_, loaded, _ := fixture(t)
	alt := altFixture(t)
	srv := New(loaded, Config{Loader: func() (*core.Result, error) { return alt, nil }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oldVec, newVec := offlineVec(t, loaded), offlineVec(t, alt)
	if vecEqual(oldVec, newVec) {
		t.Fatal("fixture and altFixture featurize identically; reload is undetectable")
	}

	if got := featurizeOnce(t, ts.URL); !vecEqual(got, oldVec) {
		t.Fatal("pre-reload response does not match the loaded bundle")
	}
	if err := srv.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got := featurizeOnce(t, ts.URL); !vecEqual(got, newVec) {
		t.Fatal("post-reload response does not match the new bundle")
	}
	if gen := srv.curStore().gen; gen != 2 {
		t.Errorf("generation = %d, want 2", gen)
	}
	m := srv.metrics
	if m.reloads.Value() != 1 || m.reloadFailures.Value() != 0 || m.generation.Value() != 2 {
		t.Errorf("reload counters = %v attempts / %v failures / generation %v, want 1 / 0 / 2",
			m.reloads.Value(), m.reloadFailures.Value(), m.generation.Value())
	}
}

// TestReloadDuringInFlightRequest pins the zero-downtime contract: a
// request already in flight when the swap lands completes successfully
// against the bundle it started with — not dropped, not answered from
// a mix of versions.
func TestReloadDuringInFlightRequest(t *testing.T) {
	_, loaded, spec := fixture(t)
	alt := altFixture(t)
	srv := New(loaded, Config{
		RequestTimeout: -1,
		Loader:         func() (*core.Result, error) { return alt, nil },
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHookFeaturize = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oldVec := offlineVec(t, loaded)
	got := make(chan []float64, 1)
	go func() {
		body := mustJSON(map[string]any{
			"table":   spec.BaseTable,
			"rows":    []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)},
			"exclude": []string{spec.Target},
		})
		resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(body))
		if err != nil {
			got <- nil
			return
		}
		defer resp.Body.Close()
		var out featurizeResponse
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
			got <- nil
			return
		}
		got <- out.Features[0]
	}()
	<-entered // request holds the pre-reload store

	if err := srv.Reload(); err != nil {
		t.Fatalf("reload with a request in flight: %v", err)
	}
	srv.testHookFeaturize = nil
	close(release)

	vec := <-got
	if vec == nil {
		t.Fatal("in-flight request failed across the reload")
	}
	if !vecEqual(vec, oldVec) {
		t.Fatal("in-flight request served mixed or new-bundle features; it must finish on its own version")
	}
	// And the next request sees the new bundle.
	if !vecEqual(featurizeOnce(t, ts.URL), offlineVec(t, alt)) {
		t.Fatal("follow-up request not on the new bundle")
	}
}

// TestReloadUnderConcurrentLoad hammers featurize from many goroutines
// while the bundle is swapped back and forth; every row is computed
// inline against the pinned store, so every response
// must be a 200 carrying exactly the old vector or exactly the new
// vector, never a mix and never a retired store's answer after release.
func TestReloadUnderConcurrentLoad(t *testing.T) {
	_, loaded, spec := fixture(t)
	alt := altFixture(t)
	next := make(chan *core.Result, 8)
	srv := New(loaded, Config{
		Loader: func() (*core.Result, error) { return <-next, nil },
	})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oldVec, newVec := offlineVec(t, loaded), offlineVec(t, alt)
	body := mustJSON(map[string]any{
		"table":   spec.BaseTable,
		"rows":    []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)},
		"exclude": []string{spec.Target},
	})

	const workers, perWorker = 8, 12
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(body))
				if err != nil {
					bad.Add(1)
					continue
				}
				var out featurizeResponse
				ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&out) == nil
				resp.Body.Close()
				if !ok || (!vecEqual(out.Features[0], oldVec) && !vecEqual(out.Features[0], newVec)) {
					bad.Add(1)
				}
			}
		}()
	}
	for _, res := range []*core.Result{alt, loaded, alt} {
		next <- res
		if err := srv.Reload(); err != nil {
			t.Fatalf("reload under load: %v", err)
		}
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d responses were dropped, non-200, or version-mixed during reloads", n)
	}
	if gen := srv.curStore().gen; gen != 4 {
		t.Errorf("generation = %d, want 4 after 3 reloads", gen)
	}
}

func TestReloadDimMismatchRollsBack(t *testing.T) {
	_, loaded, _ := fixture(t)
	bad := &core.Result{
		Embedding: embed.NewEmbedding([]string{"a", "b"}, matrix.FromRows([][]float64{{1, 2}, {3, 4}})),
		Textifier: loaded.Textifier,
		Config:    loaded.Config,
	}
	srv := New(loaded, Config{Loader: func() (*core.Result, error) { return bad, nil }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := featurizeOnce(t, ts.URL)
	err := srv.Reload()
	if err == nil {
		t.Fatal("dim-mismatched bundle accepted")
	}
	if !strings.Contains(err.Error(), "dim") {
		t.Errorf("rejection does not explain the dim mismatch: %v", err)
	}
	if gen := srv.curStore().gen; gen != 1 {
		t.Errorf("generation advanced to %d on a failed reload", gen)
	}
	if !vecEqual(featurizeOnce(t, ts.URL), before) {
		t.Error("serving features changed after a rejected reload")
	}
	m := srv.metrics
	if m.reloads.Value() != 1 || m.reloadFailures.Value() != 1 {
		t.Errorf("reload counters = %v attempts / %v failures, want 1 / 1", m.reloads.Value(), m.reloadFailures.Value())
	}
	if e, _ := m.lastReloadError.Load().(string); e == "" {
		t.Error("last reload error empty after a failed reload")
	}
}

// TestHealthzReportsLastReloadError: a rejected reload's reason shows on
// /healthz as "lastReloadError", and the next successful reload clears
// it; a server that never failed a reload carries no such field.
func TestHealthzReportsLastReloadError(t *testing.T) {
	_, loaded, _ := fixture(t)
	bad := &core.Result{
		Embedding: embed.NewEmbedding([]string{"a", "b"}, matrix.FromRows([][]float64{{1, 2}, {3, 4}})),
		Textifier: loaded.Textifier,
		Config:    loaded.Config,
	}
	next := make(chan *core.Result, 1)
	srv := New(loaded, Config{Loader: func() (*core.Result, error) { return <-next, nil }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	health := func() map[string]any {
		var h map[string]any
		if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz status %d", code)
		}
		return h
	}
	if h := health(); h["lastReloadError"] != nil {
		t.Fatalf("fresh server reports lastReloadError %v", h["lastReloadError"])
	}
	next <- bad
	err := srv.Reload()
	if err == nil {
		t.Fatal("dim-mismatched bundle accepted")
	}
	if got := health()["lastReloadError"]; got != err.Error() {
		t.Errorf("healthz lastReloadError = %v, want %q", got, err.Error())
	}
	next <- altFixture(t)
	if err := srv.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if h := health(); h["lastReloadError"] != nil || h["generation"] != float64(2) {
		t.Errorf("after a successful reload: lastReloadError %v, generation %v; want none, 2",
			h["lastReloadError"], h["generation"])
	}
}

// TestReloadCorruptBundleNeverServes is the serving end of the
// durability story: a bundle directory with one flipped byte is
// rejected by manifest verification inside the loader, and the old
// store keeps answering.
func TestReloadCorruptBundleNeverServes(t *testing.T) {
	_, loaded, _ := fixture(t)
	dir := t.TempDir()
	if err := altFixture(t).SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "bundle.bin")
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(binPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv := New(loaded, Config{Loader: func() (*core.Result, error) { return core.LoadBundle(dir) }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	err = srv.Reload()
	if err == nil {
		t.Fatal("corrupt candidate bundle accepted")
	}
	if !strings.Contains(err.Error(), "bundle.bin") {
		t.Errorf("rejection does not name the corrupt file: %v", err)
	}
	if !vecEqual(featurizeOnce(t, ts.URL), offlineVec(t, loaded)) {
		t.Error("old bundle not serving after corrupt candidate was rejected")
	}
}

// TestConcurrentReloadsAreSerialized models a double SIGHUP: two
// overlapping reloads must run one at a time (never interleaving load
// and swap), and both must complete.
func TestConcurrentReloadsAreSerialized(t *testing.T) {
	_, loaded, _ := fixture(t)
	alt := altFixture(t)
	var active, maxActive atomic.Int64
	gate := make(chan struct{})
	srv := New(loaded, Config{Loader: func() (*core.Result, error) {
		n := active.Add(1)
		defer active.Add(-1)
		for {
			prev := maxActive.Load()
			if n <= prev || maxActive.CompareAndSwap(prev, n) {
				break
			}
		}
		<-gate
		return alt, nil
	}})

	const reloads = 4
	errs := make(chan error, reloads)
	for i := 0; i < reloads; i++ {
		go func() { errs <- srv.Reload() }()
	}
	close(gate)
	for i := 0; i < reloads; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent reload %d: %v", i, err)
		}
	}
	if maxActive.Load() != 1 {
		t.Errorf("loader ran %d-way concurrent; reloads must serialize", maxActive.Load())
	}
	if gen := srv.curStore().gen; gen != reloads+1 {
		t.Errorf("generation = %d, want %d", gen, reloads+1)
	}
}

func TestAdminReloadEndpoint(t *testing.T) {
	_, loaded, _ := fixture(t)
	alt := altFixture(t)
	loadErr := error(nil)
	srv := New(loaded, Config{Loader: func() (*core.Result, error) { return alt, loadErr }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ok map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ok["generation"] != float64(2) {
		t.Fatalf("admin reload: status %d, body %v", resp.StatusCode, ok)
	}
	// The response reports which stages the refreshed bundle's build
	// recomputed; an in-memory build recomputes all three.
	stages, _ := ok["stages"].(map[string]any)
	for _, stage := range []string{"textify", "graph", "embed"} {
		if stages[stage] != string(core.StageRebuilt) {
			t.Errorf("stages[%s] = %v, want %s (body %v)", stage, stages[stage], core.StageRebuilt, ok)
		}
	}

	loadErr = errors.New("disk on fire")
	resp, err = http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var bad map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(bad["error"], "disk on fire") {
		t.Fatalf("failed admin reload: status %d, body %v", resp.StatusCode, bad)
	}
}

func TestReloadDisabledWithoutLoader(t *testing.T) {
	_, loaded, _ := fixture(t)
	srv := New(loaded, Config{})
	if err := srv.Reload(); !errors.Is(err, ErrReloadDisabled) {
		t.Fatalf("Reload without loader: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admin reload without loader: status %d, want 503", resp.StatusCode)
	}
}

// TestPanicBecomesCounted500 proves one poisonous request cannot kill
// the daemon: the handler panic is recovered into a 500, counted, and
// the next request is served normally.
func TestPanicBecomesCounted500(t *testing.T) {
	_, loaded, _ := fixture(t)
	srv := New(loaded, Config{})
	srv.testHookPanic = func() { panic("poison row") }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, _, spec := fixture(t)
	body := mustJSON(map[string]any{
		"table": spec.BaseTable,
		"rows":  []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)},
	})
	resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || e["error"] == "" {
		t.Fatalf("panicking handler: status %d, body %v", resp.StatusCode, e)
	}

	srv.testHookPanic = nil
	if vec := featurizeOnce(t, ts.URL); vec == nil {
		t.Fatal("daemon dead after a recovered panic")
	}
	if got := srv.metrics.panics.Value(); got != 1 {
		t.Errorf("panics total = %v, want 1", got)
	}
	if got := srv.metrics.statuses.With("500").Value(); got != 1 {
		t.Errorf("500 responses = %v, want 1", got)
	}
}

// TestStageProvenance covers the provenance summary: builds carry their
// stage outcomes; a Result without recorded outcomes reports unknown.
func TestStageProvenance(t *testing.T) {
	_, loaded, _ := fixture(t)
	got := stageProvenance(loaded)
	if got["textify"] == "" || got["textify"] == "unknown" {
		t.Errorf("built result reports no provenance: %v", got)
	}
	bare := &core.Result{}
	if got := stageProvenance(bare); got["textify"] != "unknown" ||
		got["graph"] != "unknown" || got["embed"] != "unknown" {
		t.Errorf("provenance without recorded outcomes = %v, want unknown", got)
	}
}
