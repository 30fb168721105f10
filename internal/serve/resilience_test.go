package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestChaosDeterministicAcrossServers: two servers with the same chaos
// seed and the same serial request sequence must inject the same faults
// — the 200 / 503 chaos_injected pattern is a replayable schedule, not
// noise.
func TestChaosDeterministicAcrossServers(t *testing.T) {
	_, loaded, _ := fixture(t)
	ix := fixtureIndex(t)
	token := loaded.Embedding.SortedNames()[1]

	run := func() []bool {
		srv := New(loaded, Config{
			Index: ix,
			Chaos: mustChaos(t, "seed=42;http:err=0.5"),
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		url := fmt.Sprintf("%s/v1/neighbors?token=%s&k=3", ts.URL, token)
		pattern := make([]bool, 0, 20)
		for i := 0; i < 20; i++ {
			code, _, body := getRaw(t, url)
			switch {
			case code == http.StatusOK:
				pattern = append(pattern, false)
			case code == http.StatusServiceUnavailable && reasonOf(t, body) == "chaos_injected":
				pattern = append(pattern, true)
			default:
				t.Fatalf("request %d: status %d (%s), want 200 or 503 chaos_injected", i, code, body)
			}
		}
		return pattern
	}
	a, b := run(), run()
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: injected=%v on one server, %v on the other — same seed must replay the same faults\n a=%v\n b=%v",
				i, a[i], b[i], a, b)
		}
		if a[i] {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Fatalf("%d of %d requests injected at err=0.5 — the schedule must mix faults and clean answers: %v",
			injected, len(a), a)
	}
}

// TestReloadBreakerTripsAndRecovers drives the reload breaker end to
// end: BreakerFailures rejected reloads trip it, the next reload is
// refused fast with 503 breaker_open + Retry-After, /healthz and
// /metrics report it, and once OpenFor has passed, successful probe
// reloads close it again. Reload attempts on a server without a Loader
// are configuration, not failures, and never trip it.
func TestReloadBreakerTripsAndRecovers(t *testing.T) {
	_, loaded, _ := fixture(t)
	const openFor = 150 * time.Millisecond
	var failing atomic.Bool
	failing.Store(true)
	srv := New(loaded, Config{
		BreakerFailures: 2,
		BreakerOpenFor:  openFor,
		Loader: func() (*core.Result, error) {
			if failing.Load() {
				return nil, errors.New("bundle unreadable")
			}
			return loaded, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reload := func() (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
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
	type health struct {
		Status   string            `json:"status"`
		Breakers map[string]string `json:"breakers"`
	}
	healthz := func() health {
		t.Helper()
		var hz health
		if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
			t.Fatalf("healthz status %d", code)
		}
		return hz
	}

	if hz := healthz(); hz.Status != "ok" || hz.Breakers["reload"] != "closed" || len(hz.Breakers) != 1 {
		t.Fatalf("fresh healthz = %+v, want ok with breakers {reload: closed}", hz)
	}
	for i := 0; i < 2; i++ {
		if code, _, body := reload(); code != http.StatusInternalServerError {
			t.Fatalf("failing reload %d: status %d (%s), want 500", i, code, body)
		}
	}
	code, hdr, body := reload()
	if code != http.StatusServiceUnavailable || reasonOf(t, body) != "breaker_open" {
		t.Fatalf("reload after %d failures: status %d (%s), want 503 breaker_open", 2, code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("breaker_open 503 missing Retry-After")
	}
	if hz := healthz(); hz.Status != "degraded" || hz.Breakers["reload"] != "open" {
		t.Errorf("healthz with a tripped reload breaker = %+v, want degraded with reload open", hz)
	}
	_, _, prom := getRaw(t, ts.URL+"/metrics")
	for _, line := range []string{
		`leva_resilience_breaker_transitions_total{dep="reload",to="open"} 1`,
		`leva_resilience_breaker_state{dep="reload"} 2`,
		`leva_resilience_dep_calls_total{dep="reload",outcome="error"} 2`,
		`leva_resilience_dep_calls_total{dep="reload",outcome="open"} 1`,
	} {
		if !strings.Contains(string(prom), line) {
			t.Errorf("/metrics missing %q", line)
		}
	}

	// Repair the bundle and wait out the cooling period: each admitted
	// probe must succeed, and SuccessThreshold (2) of them close it.
	failing.Store(false)
	time.Sleep(openFor + 50*time.Millisecond)
	for i := 0; i < 2; i++ {
		if code, _, body := reload(); code != http.StatusOK {
			t.Fatalf("probe reload %d: status %d (%s), want 200", i, code, body)
		}
	}
	if st := srv.reloadBreaker.State(); st != resilience.StateClosed {
		t.Errorf("reload breaker %v after successful probes, want closed", st)
	}
	if hz := healthz(); hz.Status != "ok" || hz.Breakers["reload"] != "closed" {
		t.Errorf("healthz after recovery = %+v, want ok with reload closed", hz)
	}

	// A server without a Loader answers ErrReloadDisabled forever; that
	// is configuration, so the breaker never opens.
	bare := New(loaded, Config{BreakerFailures: 1})
	bs := httptest.NewServer(bare.Handler())
	defer bs.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Post(bs.URL+"/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || strings.Contains(string(body), "breaker_open") {
			t.Fatalf("reload %d without a Loader: status %d (%s), want a plain 503", i, resp.StatusCode, body)
		}
		if err := bare.Reload(); !errors.Is(err, ErrReloadDisabled) {
			t.Fatalf("Reload %d without a Loader: %v, want ErrReloadDisabled", i, err)
		}
	}
	if st := bare.reloadBreaker.State(); st != resilience.StateClosed {
		t.Errorf("reload breaker %v after disabled reloads, want closed", st)
	}
	_, _, prom = getRaw(t, bs.URL+"/metrics")
	if strings.Contains(string(prom), `leva_resilience_breaker_transitions_total{dep="reload"`) {
		t.Error("disabled reloads recorded a breaker transition")
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
	srv := New(loaded, Config{Chaos: mustChaos(t, "seed=5;http:err=0.5")})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var state chaosState
	if code := getJSON(t, ts.URL+"/admin/chaos", &state); code != http.StatusOK {
		t.Fatalf("GET /admin/chaos: status %d", code)
	}
	if !state.Enabled || state.Seed != 5 {
		t.Fatalf("state = enabled=%v seed=%d, want enabled seed=5", state.Enabled, state.Seed)
	}
	if r := state.Rules["http"]; r.ErrRate != 0.5 {
		t.Fatalf("rules[http].errRate = %v, want 0.5", r.ErrRate)
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
// server never consults — "ann" included, since the neighbor search has
// no chaos hook — answers 400 unknown_chaos_target and changes nothing:
// not the seed, not the enabled flag, not the other rules in the same
// body.
func TestAdminChaosRejectsUnknownTarget(t *testing.T) {
	_, loaded, _ := fixture(t)
	srv := New(loaded, Config{Chaos: mustChaos(t, "seed=5;http:err=0.5")})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, target := range []string{"rowcache", "ann"} {
		resp, err := http.Post(ts.URL+"/admin/chaos", "application/json", strings.NewReader(fmt.Sprintf(
			`{"enabled": false, "seed": 9, "rules": {"http": {"errRate": 0.2}, %q: {"errRate": 1}}}`, target)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("target %s: status %d, want 400 (%s)", target, resp.StatusCode, body)
		}
		if r := reasonOf(t, body); r != "unknown_chaos_target" {
			t.Errorf("target %s: reason %q, want unknown_chaos_target", target, r)
		}
		if !strings.Contains(string(body), `\"`+target+`\"`) {
			t.Errorf("target %s: error does not name the target: %s", target, body)
		}

		var state chaosState
		if code := getJSON(t, ts.URL+"/admin/chaos", &state); code != http.StatusOK {
			t.Fatalf("GET /admin/chaos: status %d", code)
		}
		if !state.Enabled || state.Seed != 5 || len(state.Rules) != 1 || state.Rules["http"].ErrRate != 0.5 {
			t.Errorf("chaos state changed by a rejected POST naming %s: %+v", target, state)
		}
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
