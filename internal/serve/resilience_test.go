package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/resilience"
)

// mustChaos parses a chaos spec or fails the test.
func mustChaos(t *testing.T, spec string) *resilience.Chaos {
	t.Helper()
	c, err := resilience.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// getJSON GETs url and decodes the response body into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// getRaw GETs url and returns status, headers, and the raw body.
func getRaw(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// reasonOf decodes the "reason" taxonomy tag from an error body.
func reasonOf(t *testing.T, body []byte) string {
	t.Helper()
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q is not JSON: %v", body, err)
	}
	return e["reason"]
}

// TestNeighborsDegradeUnderChaos: with 100% injected ANN errors every
// neighbor query must still answer 200 — served by the exact
// brute-force fallback, marked degraded, never a hybrid (degraded +
// cacheHit) — and the breaker must trip deterministically after exactly
// BreakerFailures consecutive failures, observable via /metrics and
// /healthz.
func TestNeighborsDegradeUnderChaos(t *testing.T) {
	_, loaded, _ := fixture(t)
	ix := fixtureIndex(t)
	srv := New(loaded, Config{
		Index:           ix,
		BreakerFailures: 3,
		Chaos:           mustChaos(t, "seed=1;ann:err=1"),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	token := loaded.Embedding.SortedNames()[0]
	want, err := ix.BruteForceName(token, 5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		out, code := getNeighbors(t, ts.URL, token, 5)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 (degraded serving must keep answering)", i, code)
		}
		if !out.Degraded {
			t.Fatalf("request %d: not marked degraded under 100%% ANN chaos", i)
		}
		if out.CacheHit {
			t.Fatalf("request %d: degraded response claims a cache hit (hybrid response)", i)
		}
		if len(out.Neighbors) != len(want) {
			t.Fatalf("request %d: %d neighbors, want %d", i, len(out.Neighbors), len(want))
		}
		for j := range want {
			if out.Neighbors[j].Token != want[j].Name || out.Neighbors[j].Score != want[j].Score {
				t.Fatalf("request %d neighbor %d: got (%q, %v), brute-force oracle says (%q, %v)",
					i, j, out.Neighbors[j].Token, out.Neighbors[j].Score, want[j].Name, want[j].Score)
			}
		}
	}

	if st := srv.breakers["ann"].State(); st != resilience.StateOpen {
		t.Errorf("ann breaker %v after %d consecutive failures, want open", st, n)
	}
	if got := srv.metrics.degraded.With("neighbors").Value(); got != n {
		t.Errorf("degraded neighbors = %v, want %d", got, n)
	}
	if !srv.chaos.Enabled() {
		t.Error("chaos reported disabled")
	}

	// The transition is deterministic under the fixed seed: exactly one
	// closed->open, visible in the Prometheus exposition.
	_, _, prom := getRaw(t, ts.URL+"/metrics")
	for _, line := range []string{
		`leva_resilience_breaker_transitions_total{dep="ann",to="open"} 1`,
		`leva_resilience_breaker_state{dep="ann"} 2`,
		`leva_resilience_chaos_enabled 1`,
	} {
		if !strings.Contains(string(prom), line) {
			t.Errorf("/metrics missing %q", line)
		}
	}

	var hz struct {
		Status   string            `json:"status"`
		Breakers map[string]string `json:"breakers"`
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "degraded" {
		t.Errorf("healthz status %q with an open breaker, want degraded", hz.Status)
	}
	if hz.Breakers["ann"] != "open" {
		t.Errorf("healthz breakers[ann] = %q, want open", hz.Breakers["ann"])
	}
}

// TestChaosDeterministicAcrossServers: two servers with the same chaos
// seed and the same serial request sequence must inject the same faults
// — the degraded/clean pattern is a replayable schedule, not noise.
func TestChaosDeterministicAcrossServers(t *testing.T) {
	_, loaded, _ := fixture(t)
	ix := fixtureIndex(t)
	token := loaded.Embedding.SortedNames()[1]

	run := func() []bool {
		srv := New(loaded, Config{
			Index:           ix,
			BreakerFailures: 3,
			Chaos:           mustChaos(t, "seed=42;ann:err=0.5"),
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		pattern := make([]bool, 0, 20)
		for i := 0; i < 20; i++ {
			out, code := getNeighbors(t, ts.URL, token, 3)
			if code != http.StatusOK {
				t.Fatalf("request %d: status %d", i, code)
			}
			pattern = append(pattern, out.Degraded)
		}
		return pattern
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: degraded=%v on one server, %v on the other — same seed must replay the same faults\n a=%v\n b=%v",
				i, a[i], b[i], a, b)
		}
	}
}

// TestNeighborsDisableFallback: with degraded serving turned off, a
// failing ANN dependency answers a named 503 — chaos_injected while the
// breaker counts failures, breaker_open (with Retry-After) once it
// trips — and never a hung or fabricated response.
func TestNeighborsDisableFallback(t *testing.T) {
	_, loaded, _ := fixture(t)
	ix := fixtureIndex(t)
	srv := New(loaded, Config{
		Index:           ix,
		BreakerFailures: 2,
		DisableFallback: true,
		Chaos:           mustChaos(t, "seed=3;ann:err=1"),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	token := loaded.Embedding.SortedNames()[0]
	url := fmt.Sprintf("%s/v1/neighbors?token=%s&k=3", ts.URL, token)
	for i := 0; i < 2; i++ {
		code, _, body := getRaw(t, url)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503 (%s)", i, code, body)
		}
		if r := reasonOf(t, body); r != "chaos_injected" {
			t.Fatalf("request %d: reason %q, want chaos_injected", i, r)
		}
	}
	code, hdr, body := getRaw(t, url)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-trip request: status %d, want 503 (%s)", code, body)
	}
	if r := reasonOf(t, body); r != "breaker_open" {
		t.Fatalf("post-trip request: reason %q, want breaker_open", r)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("breaker_open 503 missing Retry-After")
	}
}

// TestChaosLatencyBoundedByDependencyTimeout: injected ANN latency far
// beyond the dependency budget must not hang the request — the budget
// expires, the breaker records a timeout, and the brute-force fallback
// answers.
func TestChaosLatencyBoundedByDependencyTimeout(t *testing.T) {
	_, loaded, _ := fixture(t)
	ix := fixtureIndex(t)
	srv := New(loaded, Config{
		Index:             ix,
		DependencyTimeout: 50 * time.Millisecond,
		Chaos:             mustChaos(t, "seed=2;ann:lat=30s"),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	token := loaded.Embedding.SortedNames()[0]
	start := time.Now()
	out, code := getNeighbors(t, ts.URL, token, 3)
	elapsed := time.Since(start)
	if code != http.StatusOK || !out.Degraded {
		t.Fatalf("status %d degraded=%v, want a degraded 200", code, out.Degraded)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("request took %v under 30s injected latency — dependency budget did not bound it", elapsed)
	}
}

// TestReloadResetsOpenBreaker: a successful hot reload replaces and
// revalidates the ANN index, so it must reset the open ann breaker and
// restore full (non-degraded) service.
func TestReloadResetsOpenBreaker(t *testing.T) {
	_, loaded, _ := fixture(t)
	ix := fixtureIndex(t)
	srv := New(loaded, Config{
		Index:           ix,
		BreakerFailures: 2,
		Chaos:           mustChaos(t, "seed=9;ann:err=1"),
		Loader:          func() (*core.Result, error) { return loaded, nil },
		IndexLoader:     func() (*ann.Index, error) { return ix, nil },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	token := loaded.Embedding.SortedNames()[0]
	for i := 0; i < 2; i++ {
		if out, code := getNeighbors(t, ts.URL, token, 3); code != http.StatusOK || !out.Degraded {
			t.Fatalf("request %d: status %d degraded=%v, want a degraded 200", i, code, out.Degraded)
		}
	}
	if st := srv.breakers["ann"].State(); st != resilience.StateOpen {
		t.Fatalf("ann breaker %v after tripping, want open", st)
	}

	// Stop injecting faults, then repair via hot reload.
	resp, err := http.Post(ts.URL+"/admin/chaos", "application/json", strings.NewReader(`{"enabled": false}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disable chaos: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d (%s)", resp.StatusCode, body)
	}

	if st := srv.breakers["ann"].State(); st != resilience.StateClosed {
		t.Errorf("ann breaker %v after successful reload, want closed", st)
	}
	var hz struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Errorf("healthz status %q after reload reset the breaker, want ok", hz.Status)
	}
	out, code := getNeighbors(t, ts.URL, token, 3)
	if code != http.StatusOK || out.Degraded {
		t.Errorf("post-reload query: status %d degraded=%v, want a clean 200", code, out.Degraded)
	}
}

// TestDeadlineHeader: X-Leva-Deadline-Ms is validated (400 with the
// bad_deadline taxonomy tag on garbage) and enforced — a budget that
// expires mid-handler yields the timeout 503 and is counted as
// abandoned{deadline}.
func TestDeadlineHeader(t *testing.T) {
	_, loaded, spec := fixture(t)
	srv := New(loaded, Config{})
	srv.testHookFeaturize = func() { time.Sleep(300 * time.Millisecond) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, bad := range []string{"abc", "-5", "0", "12.5"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/embedding/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(resilience.DeadlineHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q: status %d, want 400", bad, resp.StatusCode)
		}
		if r := reasonOf(t, body); r != "bad_deadline" {
			t.Fatalf("deadline %q: reason %q, want bad_deadline", bad, r)
		}
	}

	payload := mustJSON(map[string]any{
		"table": spec.BaseTable,
		"rows":  []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)},
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/featurize", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(resilience.DeadlineHeader, "30")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "timeout") {
		t.Fatalf("expired deadline: body %q does not name the timeout", body)
	}

	// The abandoned counter increments right after the middleware
	// returns; poll briefly to avoid racing it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m := srv.metrics
		if m.abandoned.With("deadline").Value()+m.abandoned.With("disconnect").Value() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned{deadline} was never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueShedsWithRetryAfter: with one admission slot held, excess
// requests wait in the bounded queue and shed with 429s that carry
// Retry-After and a shed-reason taxonomy tag.
func TestQueueShedsWithRetryAfter(t *testing.T) {
	_, loaded, spec := fixture(t)
	srv := New(loaded, Config{
		MaxInFlight:    1,
		QueueLen:       1,
		QueueTimeout:   30 * time.Millisecond,
		RequestTimeout: -1,
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHookFeaturize = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := mustJSON(map[string]any{
		"table": spec.BaseTable,
		"rows":  []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)},
	})
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(body))
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-entered // request 1 holds the only admission slot

	// Request 2 fills the one queue slot and times out there; request 3
	// finds the queue full and sheds immediately. Run them concurrently
	// so both are in the building at once.
	type shed struct {
		code       int
		retryAfter string
		reason     string
	}
	results := make(chan shed, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(body))
			if err != nil {
				results <- shed{code: -1}
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var e map[string]string
			_ = json.Unmarshal(raw, &e)
			results <- shed{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), reason: e["reason"]}
		}()
		time.Sleep(10 * time.Millisecond) // deterministic arrival order
	}
	for i := 0; i < 2; i++ {
		got := <-results
		if got.code != http.StatusTooManyRequests {
			t.Fatalf("shed request: status %d, want 429", got.code)
		}
		if got.retryAfter == "" {
			t.Error("429 missing Retry-After")
		}
		switch got.reason {
		case "capacity", "queue_timeout":
		default:
			t.Errorf("shed reason %q, want capacity or queue_timeout", got.reason)
		}
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("admitted request: status %d, want 200", code)
	}
	if got := srv.metrics.shed.Value(); got != 2 {
		t.Errorf("shed total = %v, want 2", got)
	}
	total := 0.0
	for _, reason := range []string{"capacity", "queue_timeout", "client_gone"} {
		total += srv.metrics.shedByReason.With(reason).Value()
	}
	if total != 2 {
		t.Errorf("shed by reason sums to %v, want 2", total)
	}
}

// TestAdminChaosEndpoint: GET reports the live configuration, POST
// partially updates it, and a server started without a chaos source
// refuses with the chaos_disabled taxonomy tag.
func TestAdminChaosEndpoint(t *testing.T) {
	_, loaded, _ := fixture(t)
	srv := New(loaded, Config{Chaos: mustChaos(t, "seed=5;ann:err=0.5")})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var state chaosState
	if code := getJSON(t, ts.URL+"/admin/chaos", &state); code != http.StatusOK {
		t.Fatalf("GET /admin/chaos: status %d", code)
	}
	if !state.Enabled || state.Seed != 5 {
		t.Fatalf("state = enabled=%v seed=%d, want enabled seed=5", state.Enabled, state.Seed)
	}
	if r := state.Rules["ann"]; r.ErrRate != 0.5 {
		t.Fatalf("rules[ann].errRate = %v, want 0.5", r.ErrRate)
	}

	resp, err := http.Post(ts.URL+"/admin/chaos", "application/json",
		strings.NewReader(`{"enabled": false, "rules": {"http": {"errRate": 0.1, "latencyMs": 250, "latencyRate": 1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if state.Enabled {
		t.Error("POST enabled=false did not disable chaos")
	}
	if r := state.Rules["http"]; r.ErrRate != 0.1 || r.LatencyMs != 250 {
		t.Errorf("rules[http] = %+v, want errRate 0.1 latencyMs 250", r)
	}
	_, _, prom := getRaw(t, ts.URL+"/metrics")
	if !strings.Contains(string(prom), "leva_resilience_chaos_enabled 0") {
		t.Error("chaos_enabled gauge did not drop to 0")
	}

	resp, err = http.Post(ts.URL+"/admin/chaos", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	bare := New(loaded, Config{})
	bs := httptest.NewServer(bare.Handler())
	defer bs.Close()
	code, _, body := getRaw(t, bs.URL+"/admin/chaos")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("chaos-less server: status %d, want 503", code)
	}
	if r := reasonOf(t, body); r != "chaos_disabled" {
		t.Errorf("chaos-less server: reason %q, want chaos_disabled", r)
	}
}

// TestAdminChaosRejectsUnknownTarget: a POST naming a target the
// server never consults answers 400 unknown_chaos_target and changes
// nothing — not the seed, not the enabled flag, not the other rules in
// the same body.
func TestAdminChaosRejectsUnknownTarget(t *testing.T) {
	_, loaded, _ := fixture(t)
	srv := New(loaded, Config{Chaos: mustChaos(t, "seed=5;ann:err=0.5")})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/admin/chaos", "application/json", strings.NewReader(
		`{"enabled": false, "seed": 9, "rules": {"http": {"errRate": 0.2}, "rowcache": {"errRate": 1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown target: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if r := reasonOf(t, body); r != "unknown_chaos_target" {
		t.Errorf("unknown target: reason %q, want unknown_chaos_target", r)
	}
	if !strings.Contains(string(body), "rowcache") {
		t.Errorf("unknown target: error does not name the target: %s", body)
	}

	var state chaosState
	if code := getJSON(t, ts.URL+"/admin/chaos", &state); code != http.StatusOK {
		t.Fatalf("GET /admin/chaos: status %d", code)
	}
	if !state.Enabled || state.Seed != 5 || len(state.Rules) != 1 || state.Rules["ann"].ErrRate != 0.5 {
		t.Errorf("chaos state changed by a rejected POST: %+v", state)
	}
}

// TestHTTPChaosStall: an injected mid-body stall still delivers a
// complete, valid response — the fault is the hang, not corruption.
func TestHTTPChaosStall(t *testing.T) {
	_, loaded, _ := fixture(t)
	srv := New(loaded, Config{
		Chaos: mustChaos(t, "seed=6;http:stall=1,stallfor=80ms"),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	token := loaded.Embedding.SortedNames()[0]
	start := time.Now()
	code, _, body := getRaw(t, ts.URL+"/v1/embedding/"+token)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status %d (%s)", code, body)
	}
	var out embeddingResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("stalled body did not reassemble into valid JSON: %v (%q)", err, body)
	}
	if out.Token != token {
		t.Fatalf("token %q, want %q", out.Token, token)
	}
	if elapsed < 80*time.Millisecond {
		t.Errorf("response in %v, want >= 80ms stall", elapsed)
	}
}
