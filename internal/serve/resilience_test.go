package serve

import (
	"encoding/json"
	"errors"
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
