package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/synth"
)

// fixture builds one small embedding per test binary and round-trips it
// through a bundle, so every handler test exercises the exact artifact
// levad serves in production.
var (
	fixtureOnce sync.Once
	fixtureRes  *core.Result // as built
	fixtureSrv  *core.Result // after SaveBundle/LoadBundle
	fixtureSpec *synth.Spec
	fixtureErr  error
)

func fixture(t testing.TB) (built, loaded *core.Result, spec *synth.Spec) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureSpec = synth.Student(synth.StudentOptions{Students: 40, Seed: 11})
		fixtureRes, fixtureErr = core.BuildEmbedding(fixtureSpec.DB, core.Config{
			Dim: 8, Seed: 11, Method: embed.MethodMF, UnseenFallbackDims: 3,
		})
		if fixtureErr != nil {
			return
		}
		dir, err := os.MkdirTemp("", "leva-serve-fixture-*")
		if err != nil {
			fixtureErr = err
			return
		}
		if fixtureErr = fixtureRes.SaveBundle(dir); fixtureErr != nil {
			return
		}
		fixtureSrv, fixtureErr = core.LoadBundle(dir)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureRes, fixtureSrv, fixtureSpec
}

// jsonRow renders row i of t as a featurize-request row object.
func jsonRow(t *dataset.Table, i int) map[string]any {
	row := map[string]any{}
	for _, c := range t.Columns {
		switch v := c.Values[i]; v.Kind {
		case dataset.KindNull:
			row[c.Name] = nil
		case dataset.KindString:
			row[c.Name] = v.Str
		default:
			row[c.Name] = v.Num
		}
	}
	return row
}

func postFeaturize(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/featurize", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestFeaturizeMatchesOffline(t *testing.T) {
	_, loaded, spec := fixture(t)
	base := spec.DB.Table(spec.BaseTable)
	srv := New(loaded, Config{Logger: nil})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 10
	for _, tc := range []struct {
		name     string
		graphRow func(int) int
	}{
		{"new-rows", func(int) int { return -1 }},
		{"embedded-rows", func(i int) int { return i }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := loaded.Featurize(base.SelectRows(seq(n)), spec.BaseTable,
				[]string{spec.Target}, tc.graphRow)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]map[string]any, n)
			graphRows := make([]int, n)
			for i := 0; i < n; i++ {
				rows[i] = jsonRow(base, i)
				graphRows[i] = tc.graphRow(i)
			}
			resp, body := postFeaturize(t, ts.URL, map[string]any{
				"table":     spec.BaseTable,
				"rows":      rows,
				"exclude":   []string{spec.Target},
				"graphRows": graphRows,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var out featurizeResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Rows != n || len(out.Features) != n {
				t.Fatalf("got %d rows, want %d", len(out.Features), n)
			}
			for i := range want {
				if len(out.Features[i]) != len(want[i]) {
					t.Fatalf("row %d: width %d, want %d", i, len(out.Features[i]), len(want[i]))
				}
				for j := range want[i] {
					if out.Features[i][j] != want[i][j] {
						t.Fatalf("row %d feature %d: got %v, want %v (served features must be bit-identical to offline)",
							i, j, out.Features[i][j], want[i][j])
					}
				}
			}
		})
	}
}

func TestFeaturizeColumnOrderIndependent(t *testing.T) {
	// JSON objects are unordered; the store must tokenize in fitted
	// column order, so any client-side key order yields the same bytes.
	_, loaded, _ := fixture(t)
	srv := New(loaded, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a := `{"table":"expenses","rows":[{"name":"student_00003","gender":"male","school_name":"school_2","total_expenses":100}]}`
	b := `{"table":"expenses","rows":[{"total_expenses":100,"school_name":"school_2","gender":"male","name":"student_00003"}]}`
	var feats [2][][]float64
	for i, body := range []string{a, b} {
		resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out featurizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		feats[i] = out.Features
	}
	for j := range feats[0][0] {
		if feats[0][0][j] != feats[1][0][j] {
			t.Fatalf("feature %d differs across key orders: %v vs %v", j, feats[0][0][j], feats[1][0][j])
		}
	}
}

func TestEmbeddingEndpoint(t *testing.T) {
	_, loaded, _ := fixture(t)
	srv := New(loaded, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	token := loaded.Embedding.SortedNames()[0]
	want, _ := loaded.Embedding.Vector(token)
	resp, err := http.Get(ts.URL + "/v1/embedding/" + token)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("known token: status %d", resp.StatusCode)
	}
	var out embeddingResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Token != token || out.Dim != len(want) {
		t.Fatalf("got token %q dim %d", out.Token, out.Dim)
	}
	for i := range want {
		if out.Vector[i] != want[i] {
			t.Fatalf("vector[%d] = %v, want %v", i, out.Vector[i], want[i])
		}
	}

	resp2, err := http.Get(ts.URL + "/v1/embedding/no-such-token-xyz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown token: status %d, want 404", resp2.StatusCode)
	}
}

func TestFeaturizeBadRequests(t *testing.T) {
	_, loaded, spec := fixture(t)
	srv := New(loaded, Config{MaxRowsPerRequest: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	row := jsonRow(spec.DB.Table(spec.BaseTable), 0)
	cases := []struct {
		name   string
		body   string
		want   int
		reason string
	}{
		{"malformed-json", `{"table": "expenses", "rows": [`, http.StatusBadRequest, "bad_request"},
		{"unknown-field", `{"table": "expenses", "rows": [{}], "bogus": 1}`, http.StatusBadRequest, "bad_request"},
		{"missing-table", `{"rows": [{"name": "x"}]}`, http.StatusBadRequest, "bad_request"},
		{"no-rows", `{"table": "expenses", "rows": []}`, http.StatusBadRequest, "bad_request"},
		{"unknown-table", `{"table": "nope", "rows": [{"name": "x"}]}`, http.StatusBadRequest, "bad_request"},
		{"unknown-column", `{"table": "expenses", "rows": [{"bogus_col": "x"}]}`, http.StatusBadRequest, "bad_request"},
		{"bad-mode", `{"table": "expenses", "rows": [{"name": "x"}], "mode": "fancy"}`, http.StatusBadRequest, "bad_request"},
		{"graphrows-mismatch", `{"table": "expenses", "rows": [{"name": "x"}], "graphRows": [1, 2]}`, http.StatusBadRequest, "bad_request"},
		{"nested-value", `{"table": "expenses", "rows": [{"name": {"a": 1}}]}`, http.StatusBadRequest, "bad_request"},
		{"too-many-rows", mustJSON(map[string]any{"table": spec.BaseTable, "rows": []any{row, row, row}}), http.StatusRequestEntityTooLarge, "too_many_rows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, body)
			}
			requireReason(t, resp.StatusCode, body, tc.reason)
		})
	}
}

func TestSaturationSheds429(t *testing.T) {
	_, loaded, spec := fixture(t)
	srv := New(loaded, Config{MaxInFlight: 1, RequestTimeout: -1})
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

	resp, err := http.Post(ts.URL+"/v1/featurize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("admitted request: status %d, want 200", code)
	}

	if got := shedTotal(srv); got != 1 {
		t.Errorf("shed total = %v, want 1", got)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	_, loaded, spec := fixture(t)
	srv := New(loaded, Config{Addr: "127.0.0.1:0", RequestTimeout: -1})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHookFeaturize = func() {
		entered <- struct{}{}
		<-release
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	body := mustJSON(map[string]any{
		"table": spec.BaseTable,
		"rows":  []any{jsonRow(spec.DB.Table(spec.BaseTable), 0)},
	})
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr.String()+"/v1/featurize", "application/json", strings.NewReader(body))
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-entered // the request is in flight

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the in-flight request, not abort it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a request was still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if code := <-reqDone; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestMetricsAndCacheCounters pins that featurize serves no row cache:
// the same request posted twice is recomputed into byte-identical
// bodies with no cacheHits field, whose features are == to offline
// FeaturizeRow, and the counters see two featurized rows.
func TestMetricsAndCacheCounters(t *testing.T) {
	_, loaded, spec := fixture(t)
	srv := New(loaded, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	base := spec.DB.Table(spec.BaseTable)
	req := map[string]any{
		"table":   spec.BaseTable,
		"rows":    []any{jsonRow(base, 0)},
		"exclude": []string{spec.Target},
	}
	var bodies [2][]byte
	for i := range bodies {
		resp, body := postFeaturize(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d: %s", i, resp.StatusCode, body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("repeated request bodies differ:\n%s\n%s", bodies[0], bodies[1])
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(bodies[0], &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["cacheHits"]; ok {
		t.Errorf("featurize response still carries cacheHits: %s", bodies[0])
	}
	var out featurizeResponse
	if err := json.Unmarshal(bodies[0], &out); err != nil {
		t.Fatal(err)
	}
	want, err := loaded.FeaturizeRow(base, spec.BaseTable, []string{spec.Target}, 0, -1, loaded.Config.Featurization)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Features) != 1 || len(out.Features[0]) != len(want) {
		t.Fatalf("features shape %d×%d, want 1×%d", len(out.Features), len(out.Features[0]), len(want))
	}
	for j := range want {
		if out.Features[0][j] != want[j] {
			t.Fatalf("feature %d: served %v, offline FeaturizeRow %v", j, out.Features[0][j], want[j])
		}
	}

	m := srv.metrics
	if got := m.requests.With("featurize").Value(); got != 2 {
		t.Errorf("featurize count = %v, want 2", got)
	}
	if got := m.requests.With("healthz").Value(); got != 1 {
		t.Errorf("healthz count = %v, want 1", got)
	}
	if got := m.statuses.With("200").Value(); got < 3 {
		t.Errorf("200 responses = %v, want >= 3", got)
	}
	if got := m.rowsFeaturized.Value(); got != 2 {
		t.Errorf("rows featurized = %v, want 2 (every row is computed)", got)
	}
	if p50 := m.latency.With("featurize").Quantile(0.50); p50 <= 0 {
		t.Errorf("featurize p50 = %v, want > 0", p50)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(data)
}
