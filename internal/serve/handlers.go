package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// featurizeRequest is the POST /v1/featurize body. Rows are JSON
// objects mapping column names (as fitted at embedding time) to string,
// number, boolean, or null values; column order inside an object does
// not matter — the store tokenizes in the fitted column order, so the
// response is bit-identical to offline featurization of the same rows.
type featurizeRequest struct {
	Table string           `json:"table"`
	Rows  []map[string]any `json:"rows"`
	// Exclude lists columns to drop from featurization (typically the
	// target, when present in the rows).
	Exclude []string `json:"exclude"`
	// GraphRows optionally maps each row to its row index at embedding
	// time (the "table:rowIdx" embedding key); -1 or absent means the
	// row was never embedded and is composed from value-node vectors.
	GraphRows []int `json:"graphRows"`
	// Mode overrides the bundle's featurization mode: "row" or
	// "row+value". Empty uses the bundle default.
	Mode string `json:"mode"`
}

type featurizeResponse struct {
	Table    string      `json:"table"`
	Rows     int         `json:"rows"`
	Dim      int         `json:"dim"`
	Features [][]float64 `json:"features"`
}

type embeddingResponse struct {
	Token  string    `json:"token"`
	Dim    int       `json:"dim"`
	Vector []float64 `json:"vector"`
}

// writeJSON marshals v with status code; encoding errors at this point
// can only be I/O (client gone), so they are ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeErrorReason writes every error body: a human-facing "error"
// message plus a machine-readable "reason" tag that clients branch on
// instead of parsing the message. The reasons are bad_request,
// body_too_large, too_many_rows, canceled, unknown_token, bad_param,
// no_index, capacity, queue_timeout, deadline, client_gone,
// bad_deadline, reload_disabled, reload_rejected, not_found,
// method_not_allowed and internal — plus timeout, which the
// per-request timeout handler writes itself. The table in docs/SERVING.md lists where each comes
// from.
func writeErrorReason(w http.ResponseWriter, status int, reason, format string, args ...any) {
	writeJSON(w, status, map[string]string{
		"error":  fmt.Sprintf(format, args...),
		"reason": reason,
	})
}

// routeMethods are the methods Server.Handler routes (a GET route also
// takes HEAD); handleUnmatched probes them to build an Allow header.
var routeMethods = []string{http.MethodGet, http.MethodHead, http.MethodPost}

// handleUnmatched answers a request that only mux's "/" catch-all
// matched: 405 with an Allow header when the path has routes under
// other methods, 404 when it has none.
func handleUnmatched(mux *http.ServeMux, w http.ResponseWriter, r *http.Request) {
	var allow []string
	probe := r.Clone(r.Context())
	for _, method := range routeMethods {
		probe.Method = method
		if _, pattern := mux.Handler(probe); pattern != "/" {
			allow = append(allow, method)
		}
	}
	if len(allow) == 0 {
		writeErrorReason(w, http.StatusNotFound, "not_found", "no route for %s", r.URL.Path)
		return
	}
	w.Header().Set("Allow", strings.Join(allow, ", "))
	writeErrorReason(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s is not allowed on %s", r.Method, r.URL.Path)
}

// handleFeaturize computes features against st — the store pinned at
// request entry, so a concurrent hot reload can neither drop this
// request nor mix bundle versions inside one response.
func (s *Server) handleFeaturize(st *store, w http.ResponseWriter, r *http.Request) {
	if s.testHookFeaturize != nil {
		s.testHookFeaturize()
	}
	if s.testHookPanic != nil {
		s.testHookPanic()
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req featurizeRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErrorReason(w, http.StatusRequestEntityTooLarge, "body_too_large", "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErrorReason(w, http.StatusBadRequest, "bad_request", "malformed request: %v", err)
		return
	}
	if req.Table == "" {
		writeErrorReason(w, http.StatusBadRequest, "bad_request", "missing table")
		return
	}
	if len(req.Rows) == 0 {
		writeErrorReason(w, http.StatusBadRequest, "bad_request", "no rows")
		return
	}
	if len(req.Rows) > s.cfg.MaxRowsPerRequest {
		writeErrorReason(w, http.StatusRequestEntityTooLarge, "too_many_rows", "%d rows exceeds the per-request limit of %d", len(req.Rows), s.cfg.MaxRowsPerRequest)
		return
	}
	if req.GraphRows != nil && len(req.GraphRows) != len(req.Rows) {
		writeErrorReason(w, http.StatusBadRequest, "bad_request", "graphRows has %d entries for %d rows", len(req.GraphRows), len(req.Rows))
		return
	}
	mode := st.res.Config.Featurization
	switch req.Mode {
	case "":
	case "row":
		mode = core.RowOnly
	case "row+value":
		mode = core.RowPlusValue
	default:
		writeErrorReason(w, http.StatusBadRequest, "bad_request", "unknown mode %q (want \"row\" or \"row+value\")", req.Mode)
		return
	}
	cols := st.columns(req.Table)
	if cols == nil {
		writeErrorReason(w, http.StatusBadRequest, "bad_request", "unknown table %q (bundle knows: %v)", req.Table, st.res.Textifier.Tables())
		return
	}
	colSet := make(map[string]bool, len(cols))
	for _, c := range cols {
		colSet[c] = true
	}

	jobs := make([]*rowJob, len(req.Rows))
	for i, row := range req.Rows {
		for _, k := range sortedKeys(row) {
			if !colSet[k] {
				writeErrorReason(w, http.StatusBadRequest, "bad_request", "row %d: unknown column %q in table %q", i, k, req.Table)
				return
			}
		}
		// One-row table with the provided columns in fitted order, so
		// token order — and therefore floating-point feature sums —
		// match the offline table scan exactly.
		t := &dataset.Table{Name: req.Table}
		for _, c := range cols {
			raw, ok := row[c]
			if !ok {
				continue
			}
			v, err := toValue(raw)
			if err != nil {
				writeErrorReason(w, http.StatusBadRequest, "bad_request", "row %d, column %q: %v", i, c, err)
				return
			}
			t.Columns = append(t.Columns, &dataset.Column{Name: c, Values: []dataset.Value{v}})
		}
		graphRow := -1
		if req.GraphRows != nil {
			graphRow = req.GraphRows[i]
		}
		jobs[i] = &rowJob{t: t, table: req.Table, exclude: req.Exclude, graphRow: graphRow, mode: mode}
	}

	if err := st.compute(r.Context(), jobs); err != nil {
		if r.Context().Err() != nil {
			writeErrorReason(w, http.StatusServiceUnavailable, "canceled", "request canceled: %v", err)
			return
		}
		writeErrorReason(w, http.StatusBadRequest, "bad_request", "featurize: %v", err)
		return
	}
	features := make([][]float64, len(jobs))
	for i, j := range jobs {
		features[i] = j.out
	}
	writeJSON(w, http.StatusOK, featurizeResponse{
		Table:    req.Table,
		Rows:     len(features),
		Dim:      st.featureWidth(mode),
		Features: features,
	})
}

func (s *Server) handleEmbedding(st *store, w http.ResponseWriter, r *http.Request) {
	token := r.PathValue("token")
	vec, ok := st.vector(token)
	if !ok {
		writeErrorReason(w, http.StatusNotFound, "unknown_token", "unknown token %q", token)
		return
	}
	writeJSON(w, http.StatusOK, embeddingResponse{Token: token, Dim: len(vec), Vector: vec})
}

// handleHealthz reports liveness: status is always "ok" while the
// server answers. After a rejected reload, "lastReloadError" says why
// until a reload succeeds, so an operator can see a replica stuck on a
// bad bundle.
func (s *Server) handleHealthz(st *store, w http.ResponseWriter, _ *http.Request) {
	annVectors := 0
	quantized := false
	var quantBytes int64
	if st.index != nil {
		annVectors = st.index.Len()
		quantized = st.index.Quantized()
		quantBytes = st.index.QuantBytes()
	}
	body := map[string]any{
		"status":       "ok",
		"vectors":      st.res.Embedding.Len(),
		"dim":          st.res.Embedding.Dim,
		"annVectors":   annVectors,
		"quantized":    quantized,
		"quantBytes":   quantBytes,
		"generation":   st.gen,
		"bundleFormat": st.res.BundleFormat,
	}
	if e, _ := s.metrics.lastReloadError.Load().(string); e != "" {
		body["lastReloadError"] = e
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics is GET /metrics: the registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.reg.WritePrometheus(w)
}

// toValue maps a decoded JSON value to a relational cell. Booleans
// become their textual form (CSV-loaded data never contains a bool
// kind); arrays and objects are rejected.
func toValue(x any) (dataset.Value, error) {
	switch v := x.(type) {
	case nil:
		return dataset.Null(), nil
	case string:
		return dataset.String(v), nil
	case float64:
		return dataset.Number(v), nil
	case bool:
		return dataset.String(strconv.FormatBool(v)), nil
	default:
		return dataset.Value{}, fmt.Errorf("unsupported JSON value of type %T (use string, number, boolean, or null)", x)
	}
}

// sortedKeys returns a row object's keys in lexical order so validation
// errors are deterministic.
func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
