package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/ann"
)

// neighborsRequest is the POST /v1/neighbors body. Exactly one of
// Token and Vector must be set: Token looks up an indexed entity and
// returns its neighbors (itself excluded); Vector searches with a raw
// query vector of the index's dimension.
type neighborsRequest struct {
	Token  string    `json:"token"`
	Vector []float64 `json:"vector"`
	// K is how many neighbors to return. Default 10.
	K int `json:"k"`
	// EfSearch overrides the index's search beam width for this query
	// (larger = higher recall, slower). 0 uses the index default.
	EfSearch int `json:"efSearch"`
}

// neighborItem is one returned neighbor: the entity's embedding token
// and its cosine similarity to the query (higher is closer).
type neighborItem struct {
	Token string  `json:"token"`
	Score float64 `json:"score"`
}

type neighborsResponse struct {
	Token     string         `json:"token,omitempty"`
	K         int            `json:"k"`
	Dim       int            `json:"dim"`
	CacheHit  bool           `json:"cacheHit"`
	Neighbors []neighborItem `json:"neighbors"`
}

// maxNeighborsK bounds one query so a bad client cannot ask the index
// to rank its entire vocabulary.
const maxNeighborsK = 1000

// handleNeighbors answers GET and POST /v1/neighbors against the store
// pinned at request entry — like /v1/featurize, a concurrent hot
// reload can neither drop an in-flight query nor mix index versions
// inside one response. GET takes token/k/ef query parameters; POST
// takes a JSON body with a token or a raw vector. Servers configured
// without an index answer 503.
func (s *Server) handleNeighbors(st *store, w http.ResponseWriter, r *http.Request) {
	if s.testHookNeighbors != nil {
		s.testHookNeighbors()
	}
	if st.index == nil {
		writeErrorReason(w, http.StatusServiceUnavailable, "no_index", "no ANN index loaded (start with -index, or rebuild with leva embed -index)")
		return
	}
	var req neighborsRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.Token = q.Get("token")
		var err error
		if req.K, err = intParam(q.Get("k"), 10); err != nil {
			writeErrorReason(w, http.StatusBadRequest, "bad_param", "bad k: %v", err)
			return
		}
		if req.EfSearch, err = intParam(q.Get("ef"), 0); err != nil {
			writeErrorReason(w, http.StatusBadRequest, "bad_param", "bad ef: %v", err)
			return
		}
		if req.Token == "" {
			writeErrorReason(w, http.StatusBadRequest, "bad_param", "missing token parameter (POST a JSON body to query by raw vector)")
			return
		}
	} else {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
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
		if req.K == 0 {
			req.K = 10
		}
	}
	// Parameter bounds are checked before the index is ever touched —
	// GET and POST share these — and every rejection carries the
	// "bad_param" taxonomy tag so clients can branch without parsing
	// the message.
	if (req.Token == "") == (len(req.Vector) == 0) {
		writeErrorReason(w, http.StatusBadRequest, "bad_param", "exactly one of token and vector must be set")
		return
	}
	if req.K < 1 || req.K > maxNeighborsK {
		writeErrorReason(w, http.StatusBadRequest, "bad_param", "k must be in [1, %d], got %d", maxNeighborsK, req.K)
		return
	}
	if req.K > st.index.Len() {
		writeErrorReason(w, http.StatusBadRequest, "bad_param", "k=%d exceeds the index size %d", req.K, st.index.Len())
		return
	}
	if req.EfSearch < 0 {
		writeErrorReason(w, http.StatusBadRequest, "bad_param", "efSearch must be >= 0, got %d", req.EfSearch)
		return
	}
	if req.EfSearch != 0 && req.EfSearch < req.K {
		writeErrorReason(w, http.StatusBadRequest, "bad_param", "efSearch=%d is smaller than k=%d (use 0 for the index default)", req.EfSearch, req.K)
		return
	}

	if req.Token == "" && len(req.Vector) != st.index.Dim() {
		writeErrorReason(w, http.StatusBadRequest, "bad_param", "vector has %d dimensions, index has %d", len(req.Vector), st.index.Dim())
		return
	}

	var (
		results  []ann.Result
		cacheHit bool
		err      error
	)
	if req.Token != "" {
		results, cacheHit, err = st.neighborsByName(req.Token, req.K, req.EfSearch)
	} else {
		results, err = st.index.SearchVector(req.Vector, req.K, req.EfSearch)
	}
	if errors.Is(err, ann.ErrUnknownName) {
		writeErrorReason(w, http.StatusNotFound, "unknown_token", "%v", err)
		return
	}
	if err != nil {
		writeErrorReason(w, http.StatusBadRequest, "bad_param", "neighbors: %v", err)
		return
	}
	items := make([]neighborItem, len(results))
	for i, res := range results {
		items[i] = neighborItem{Token: res.Name, Score: res.Score}
	}
	writeJSON(w, http.StatusOK, neighborsResponse{
		Token:     req.Token,
		K:         req.K,
		Dim:       st.index.Dim(),
		CacheHit:  cacheHit,
		Neighbors: items,
	})
}

// intParam parses an optional integer query parameter.
func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}
