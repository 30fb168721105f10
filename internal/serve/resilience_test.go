package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
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

// postReload POSTs /admin/reload and returns status and body.
func postReload(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// memo returns srv's rejected-candidate memo, read under its lock.
func memo(srv *Server) *rejectedCandidate {
	srv.reloadMu.Lock()
	defer srv.reloadMu.Unlock()
	return srv.rejected
}

// shedTotal sums leva_shed_total over its reasons.
func shedTotal(srv *Server) float64 {
	total := 0.0
	for _, reason := range []string{"capacity", "queue_timeout", "deadline", "client_gone"} {
		total += srv.metrics.shedByReason.With(reason).Value()
	}
	return total
}

// TestReloadRefusesUnchangedRejectedCandidate drives the rejected-
// candidate memo end to end over real bundle directories: a corrupt
// candidate is loaded once and then refused unread, with the same
// 500 reload_rejected and every attempt counted, until it changes — a
// republished good bundle reloads on the very next call, a touched bad
// one is loaded (and rejected) again. A directory that cannot be
// stamped loads as usual, and refusals that say nothing about the
// candidate (reload disabled) never set the memo.
func TestReloadRefusesUnchangedRejectedCandidate(t *testing.T) {
	built, loaded, _ := fixture(t)
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := built.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "bundle.bin")
	var loads atomic.Int64
	srv := New(loaded, Config{
		ReloadDirs: []string{dir},
		Loader: func() (*core.Result, error) {
			loads.Add(1)
			return core.LoadBundle(dir)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reload := func() (int, string) {
		t.Helper()
		code, body := postReload(t, ts.URL)
		return code, string(body)
	}
	// rejected requires one 500 reload_rejected answer, refused unread
	// (the memo's wording) or not, with the load count it leaves.
	rejected := func(what string, unread bool, wantLoads int64) {
		t.Helper()
		code, body := reload()
		if code != http.StatusInternalServerError || reasonOf(t, []byte(body)) != "reload_rejected" {
			t.Fatalf("%s: status %d (%s), want 500 reload_rejected", what, code, body)
		}
		if got := strings.Contains(body, "candidate unchanged since its rejection"); got != unread {
			t.Errorf("%s: body %s; refused unread = %v, want %v", what, body, got, unread)
		}
		if got := loads.Load(); got != wantLoads {
			t.Errorf("%s: %d loads, want %d", what, got, wantLoads)
		}
	}
	// flip replaces bundle.bin, by rename, with a copy that has one byte
	// flipped: it fails its manifest hash.
	flip := func() {
		t.Helper()
		data, err := os.ReadFile(binPath)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(binPath+".flipped", data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(binPath+".flipped", binPath); err != nil {
			t.Fatal(err)
		}
	}

	flip()
	for i := 1; i <= 5; i++ {
		rejected(fmt.Sprintf("corrupt reload %d", i), i > 1, 1)
	}
	if got := srv.metrics.reloadFailures.Value(); got != 5 {
		t.Errorf("leva_reload_failures_total = %v after 5 rejected reloads, want 5", got)
	}
	var hz struct {
		Status          string `json:"status"`
		LastReloadError string `json:"lastReloadError"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" ||
		!strings.Contains(hz.LastReloadError, "SHA-256") || !strings.Contains(hz.LastReloadError, "unchanged since its rejection") {
		t.Errorf("healthz after refused reloads = %d %+v, want ok naming the refusal and its cause", code, hz)
	}

	// A republished good bundle is picked up on the next call.
	if err := built.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	if code, body := reload(); code != http.StatusOK || !strings.Contains(body, `"generation":2`) {
		t.Fatalf("reload of the republished bundle: status %d (%s), want 200 at generation 2", code, body)
	}
	if m := memo(srv); loads.Load() != 2 || m != nil {
		t.Errorf("after the good reload: %d loads, memo %v; want 2 loads and no memo", loads.Load(), m)
	}

	// Touching the rejected bundle.bin makes it a new candidate: one
	// full load, rejected again, then refused unread.
	flip()
	rejected("corrupt after the good reload", false, 3)
	rejected("unchanged corrupt", true, 3)
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(binPath, later, later); err != nil {
		t.Fatal(err)
	}
	rejected("touched corrupt", false, 4)
	rejected("touched corrupt, unchanged since", true, 4)

	// A dir without a manifest cannot be stamped: every reload loads and
	// names what is missing.
	if err := os.Remove(filepath.Join(dir, durable.ManifestName)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		rejected(fmt.Sprintf("unsealed reload %d", i), false, 4+i)
		if e, _ := srv.metrics.lastReloadError.Load().(string); !strings.Contains(e, durable.ManifestName) {
			t.Errorf("unsealed reload %d: error %q does not name %s", i, e, durable.ManifestName)
		}
	}
	if memo(srv) != nil {
		t.Error("an unstampable candidate set the memo")
	}

	// A server without a Loader answers ErrReloadDisabled forever; that
	// is configuration, so it never sets the memo.
	bare := New(loaded, Config{ReloadDirs: []string{dir}})
	bs := httptest.NewServer(bare.Handler())
	defer bs.Close()
	for i := 0; i < 3; i++ {
		code, body := postReload(t, bs.URL)
		if code != http.StatusServiceUnavailable || reasonOf(t, body) != "reload_disabled" {
			t.Fatalf("reload %d without a Loader: status %d (%s), want 503 reload_disabled", i, code, body)
		}
		if err := bare.Reload(); !errors.Is(err, ErrReloadDisabled) {
			t.Fatalf("Reload %d without a Loader: %v, want ErrReloadDisabled", i, err)
		}
	}
	if memo(bare) != nil {
		t.Error("disabled reloads set the memo")
	}
}

// waitUntil polls cond for up to two seconds: the counters and the
// limiter settle after the client already has its answer.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineHeader: X-Leva-Deadline-Ms is validated (400 with the
// bad_deadline taxonomy tag on garbage) and enforced — a budget that
// expires mid-handler yields the timeout 503, is counted as
// abandoned{deadline}, and is the congestion signal that backs the
// adaptive limit off. A client that cancels mid-handler is not
// congestion: it leaves the limit alone.
func TestDeadlineHeader(t *testing.T) {
	_, loaded, spec := fixture(t)
	srv := New(loaded, Config{})
	srv.testHookFeaturize = func() { time.Sleep(300 * time.Millisecond) }
	entered := make(chan struct{}, 1)
	srv.testHookNeighbors = func() {
		entered <- struct{}{}
		time.Sleep(300 * time.Millisecond)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, bad := range []string{"abc", "-5", "0", "12.5"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/embedding/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(deadlineHeader, bad)
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

	m := srv.metrics
	limitState := func() (float64, float64) {
		return srv.limiter.currentLimit(), srv.limiter.backoffs.Value()
	}

	// A client that cancels mid-handler (a bodyless GET, so the server
	// sees the closed connection at once): the request context ends
	// cancelled, and the limit stays at its ceiling.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/neighbors?token=x", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: %v, want context.Canceled", err)
	}
	waitUntil(t, "the cancelled request's release", func() bool {
		return m.abandoned.With("disconnect").Value() == 1 && inflight(srv.limiter) == 0
	})
	if limit, backoffs := limitState(); limit != 64 || backoffs != 0 {
		t.Fatalf("after a cancelled request: limit %v, %v backoffs; want 64 and 0", limit, backoffs)
	}

	payload := mustJSON(map[string]any{
		"table": spec.BaseTable,
		"rows":  []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)},
	})
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v1/featurize", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(deadlineHeader, "30")
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
	waitUntil(t, "abandoned{deadline} and the backoff", func() bool {
		return m.abandoned.With("deadline").Value() == 1 && inflight(srv.limiter) == 0
	})
	if limit, backoffs := limitState(); limit != 48 || backoffs != 1 {
		t.Fatalf("after an expired deadline: limit %v, %v backoffs; want 48 (64 × 0.75) and 1", limit, backoffs)
	}
	_, _, scrape := getRaw(t, ts.URL+"/metrics")
	for _, line := range []string{"leva_resilience_backoffs_total 1\n", "leva_resilience_limit 48\n"} {
		if !strings.Contains(string(scrape), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestQueueShedsWithRetryAfter: with one admission slot held, excess
// requests wait in the bounded queue and shed with 429s that carry
// Retry-After: 1 and a documented shed reason — capacity when the
// queue is full, queue_timeout when a wait outlives -queue-timeout,
// deadline when the request's X-Leva-Deadline-Ms expires first. A
// request shed from the queue is not counted as abandoned.
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
	post := func(deadlineMs string) (int, http.Header, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/featurize", strings.NewReader(body))
		if err != nil {
			return -1, nil, []byte(err.Error())
		}
		req.Header.Set("Content-Type", "application/json")
		if deadlineMs != "" {
			req.Header.Set(deadlineHeader, deadlineMs)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1, nil, []byte(err.Error())
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, raw
	}
	requireShed := func(what, reason string, code int, hdr http.Header, raw []byte) {
		t.Helper()
		if code != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d (%s), want 429", what, code, raw)
		}
		if got := hdr.Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After %q, want 1", what, got)
		}
		requireReason(t, code, raw, reason)
	}

	first := make(chan int, 1)
	go func() {
		code, _, _ := post("")
		first <- code
	}()
	<-entered // request 1 holds the only admission slot

	// Request 2 takes the one queue slot; request 3 finds the queue full
	// and sheds at once; request 2 then ages out of the queue.
	type answer struct {
		code int
		hdr  http.Header
		raw  []byte
	}
	queued := make(chan answer, 1)
	go func() {
		code, hdr, raw := post("")
		queued <- answer{code, hdr, raw}
	}()
	waitUntil(t, "request 2 queueing", func() bool { return srv.limiter.queueDepth() == 1 })
	code, hdr, raw := post("")
	requireShed("full queue", "capacity", code, hdr, raw)
	a := <-queued
	requireShed("queued past -queue-timeout", "queue_timeout", a.code, a.hdr, a.raw)

	// A queued request whose own deadline expires before the queue
	// timeout sheds as deadline: the client is still there to read it.
	code, hdr, raw = post("5")
	requireShed("queued past its deadline", "deadline", code, hdr, raw)

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("admitted request: status %d, want 200", code)
	}
	for _, reason := range []string{"capacity", "queue_timeout", "deadline"} {
		if got := srv.metrics.shedByReason.With(reason).Value(); got != 1 {
			t.Errorf("leva_shed_total{reason=%q} = %v, want 1", reason, got)
		}
	}
	// The deadline shed was never admitted, so it was not abandoned
	// mid-flight.
	for _, reason := range []string{"deadline", "disconnect"} {
		if got := srv.metrics.abandoned.With(reason).Value(); got != 0 {
			t.Errorf("leva_resilience_abandoned_total{reason=%q} = %v, want 0", reason, got)
		}
	}
	if got := shedTotal(srv); got != 3 {
		t.Errorf("shed by reason sums to %v, want 3", got)
	}
}
