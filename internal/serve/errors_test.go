package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// documentedReasons reads the reason table of docs/SERVING.md into a
// set of "reason status" pairs.
func documentedReasons(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../docs/SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| `([0-9]{3})` \\|").FindAllStringSubmatch(string(raw), -1)
	if len(rows) == 0 {
		t.Fatal("no reason table found in docs/SERVING.md")
	}
	out := map[string]bool{}
	for _, r := range rows {
		out[r[1]+" "+r[2]] = true
	}
	return out
}

// requireReason fails t unless body is an error object holding exactly
// a message and the given reason, and the docs/SERVING.md reason table
// lists that reason with status.
func requireReason(t *testing.T, status int, body []byte, reason string) {
	t.Helper()
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q is not a JSON object of strings: %v", body, err)
	}
	if e["error"] == "" || e["reason"] != reason || len(e) != 2 {
		t.Fatalf("body %q, want an error message and reason %q only", body, reason)
	}
	if !documentedReasons(t)[reason+" "+strconv.Itoa(status)] {
		t.Errorf("reason %q with status %d is not in the docs/SERVING.md reason table", reason, status)
	}
}

// TestErrorBodiesCarryDocumentedReason drives every error path of the
// handlers that TestFeaturizeBadRequests does not, and requires each
// body to carry a message and a reason that the docs/SERVING.md table
// lists with that status. Two paths are not driven because the checks
// before them reject every input that could reach them: a featurize
// error other than cancellation (bad_request) and a neighbor search
// error other than an unknown token (bad_param).
func TestErrorBodiesCarryDocumentedReason(t *testing.T) {
	_, loaded, spec := fixture(t)
	ix := fixtureIndex(t)
	row := jsonRow(spec.DB.Table(spec.BaseTable), 0)

	plain := New(loaded, Config{Index: ix}).Handler()
	tiny := New(loaded, Config{MaxBodyBytes: 16, Index: ix}).Handler()
	bare := New(loaded, Config{})
	rejecting := New(loaded, Config{Loader: func() (*core.Result, error) {
		return nil, errors.New("disk on fire")
	}}).Handler()
	panicking := New(loaded, Config{})
	panicking.testHookPanic = func() { panic("poison row") }
	closed := New(loaded, Config{Loader: func() (*core.Result, error) { return loaded, nil }})
	if err := closed.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// canceled featurizes with a request context that has already
	// ended, so the handler stops before its first row.
	canceled := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		cancel()
		bare.handleFeaturize(bare.st.Load(), w, r.WithContext(ctx))
	})

	okRow := mustJSON(map[string]any{"table": spec.BaseTable, "rows": []any{row}})
	unknown := `{"token":"no-such-token-xyz","k":3}`
	cases := []struct {
		name         string
		h            http.Handler
		method, path string
		body         string
		status       int
		reason       string
	}{
		{"featurize/body-too-large", tiny, "POST", "/v1/featurize", okRow, 413, "body_too_large"},
		{"featurize/panic", panicking.Handler(), "POST", "/v1/featurize", okRow, 500, "internal"},
		{"featurize/canceled", canceled, "POST", "/v1/featurize", okRow, 503, "canceled"},
		{"embedding/unknown-token", plain, "GET", "/v1/embedding/no-such-token-xyz", "", 404, "unknown_token"},
		{"neighbors/get-unknown-token", plain, "GET", "/v1/neighbors?token=no-such-token-xyz&k=3", "", 404, "unknown_token"},
		{"neighbors/post-unknown-token", plain, "POST", "/v1/neighbors", unknown, 404, "unknown_token"},
		{"neighbors/malformed", plain, "POST", "/v1/neighbors", `{"token":`, 400, "bad_request"},
		{"neighbors/body-too-large", tiny, "POST", "/v1/neighbors", unknown, 413, "body_too_large"},
		{"neighbors/bad-k", plain, "GET", "/v1/neighbors?token=x&k=0", "", 400, "bad_param"},
		{"neighbors/no-index", bare.Handler(), "GET", "/v1/neighbors?token=x", "", 503, "no_index"},
		{"reload/disabled", plain, "POST", "/admin/reload", "", 503, "reload_disabled"},
		{"reload/rejected", rejecting, "POST", "/admin/reload", "", 500, "reload_rejected"},
		{"reload/after-shutdown", closed.Handler(), "POST", "/admin/reload", "", 500, "canceled"},
		{"router/unknown-route", plain, "GET", "/v1/no-such-route", "", 404, "not_found"},
		{"router/wrong-method", plain, "GET", "/v1/featurize", "", 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			status, body := rec.Code, rec.Body.Bytes()
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, body)
			}
			requireReason(t, status, body, tc.reason)
		})
	}
}
