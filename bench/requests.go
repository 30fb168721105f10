package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
)

// The request mixes are drawn from restbase's base table. Thirty percent
// of featurize rows replace the review id with one the embedding never
// saw, so those rows compose from value nodes alone and have their own
// row-cache entries.
const (
	baseTable    = "reviews"
	targetColumn = "score"
	unseenColumn = "review_id"
	unseenShare  = 0.3
	batchShare   = 0.1
	batchRows    = 32
	zipfS        = 1.1
	neighborsK   = 10
	queryNoise   = 0.01
	// poolSize is how many distinct requests are pre-encoded; phases
	// cycle through them. 8192 covers the in-process replay's first
	// 5,000 requests and keeps the largest pool near 10 MiB.
	poolSize = 8192
	// checkEvery samples one pool entry in this many for the oracles.
	checkEvery = 8
)

type reqKind int

const (
	kindFeaturize reqKind = iota
	kindNeighborsVector
	kindNeighborsToken
	kindEmbedding
)

// entry is one pool request in decoded form, for the oracles and the
// in-process replay.
type entry struct {
	kind   reqKind
	body   []byte    // POST body
	vector []float64 // raw-vector neighbors query
	token  string    // neighbors-by-token or embedding lookup
}

// featurizeBody mirrors the POST /v1/featurize request.
type featurizeBody struct {
	Table     string           `json:"table"`
	Rows      []map[string]any `json:"rows"`
	Exclude   []string         `json:"exclude"`
	GraphRows []int            `json:"graphRows,omitempty"`
	Mode      string           `json:"mode,omitempty"`
}

// neighborsBody mirrors the POST /v1/neighbors request.
type neighborsBody struct {
	Token    string    `json:"token,omitempty"`
	Vector   []float64 `json:"vector,omitempty"`
	K        int       `json:"k"`
	EfSearch int       `json:"efSearch,omitempty"`
}

type featurizeResp struct {
	Table     string      `json:"table"`
	Rows      int         `json:"rows"`
	Dim       int         `json:"dim"`
	CacheHits int         `json:"cacheHits"`
	Features  [][]float64 `json:"features"`
}

type neighborItem struct {
	Token string  `json:"token"`
	Score float64 `json:"score"`
}

type neighborsResp struct {
	Token     string         `json:"token,omitempty"`
	K         int            `json:"k"`
	Dim       int            `json:"dim"`
	CacheHit  bool           `json:"cacheHit"`
	Degraded  bool           `json:"degraded,omitempty"`
	Neighbors []neighborItem `json:"neighbors"`
}

type embeddingResp struct {
	Token  string    `json:"token"`
	Dim    int       `json:"dim"`
	Vector []float64 `json:"vector"`
}

func httpPost(path string, body []byte) []byte {
	return fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: levad\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body)
}

func httpGet(path string) []byte {
	return fmt.Appendf(nil, "GET %s HTTP/1.1\r\nHost: levad\r\n\r\n", path)
}

// encode renders e as a pool request.
func (e *entry) encode(id int) request {
	r := request{id: id, check: id%checkEvery == 0}
	switch e.kind {
	case kindFeaturize:
		r.raw = httpPost("/v1/featurize", e.body)
	case kindNeighborsVector:
		r.raw = httpPost("/v1/neighbors", e.body)
	case kindNeighborsToken:
		r.raw = httpGet("/v1/neighbors?token=" + url.QueryEscape(e.token) + "&k=" + strconv.Itoa(neighborsK))
	case kindEmbedding:
		r.raw = httpGet("/v1/embedding/" + url.PathEscape(e.token))
	}
	return r
}

func encodePool(entries []entry) []request {
	out := make([]request, len(entries))
	for i := range entries {
		out[i] = entries[i].encode(i)
	}
	return out
}

// rowSource draws base-table rows Zipf(1.1) over a seeded permutation,
// so popularity is skewed but which rows are popular depends on the seed.
type rowSource struct {
	t    *dataset.Table
	cols []string
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newRowSource(rng *rand.Rand, t *dataset.Table, cols []string) *rowSource {
	n := t.NumRows()
	return &rowSource{t: t, cols: cols, rng: rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), perm: rng.Perm(n)}
}

// row renders one drawn row as the JSON object a client would send.
func (s *rowSource) row() map[string]any {
	i := s.perm[s.zipf.Uint64()]
	unseen := s.rng.Float64() < unseenShare
	row := make(map[string]any, len(s.cols))
	for _, c := range s.cols {
		col := s.t.Column(c)
		if col == nil {
			continue
		}
		row[c] = jsonValue(col.Values[i])
		if unseen && c == unseenColumn {
			row[c] = "unseen_review_" + strconv.Itoa(i)
		}
	}
	return row
}

func (s *rowSource) featurize(rows int) entry {
	b := featurizeBody{Table: baseTable, Exclude: []string{targetColumn}}
	for i := 0; i < rows; i++ {
		b.Rows = append(b.Rows, s.row())
	}
	body, err := json.Marshal(b)
	if err != nil {
		panic(err) // only maps of strings, float64s and nils reach here
	}
	return entry{kind: kindFeaturize, body: body}
}

// jsonValue is the JSON form of a CSV cell.
func jsonValue(v dataset.Value) any {
	switch v.Kind {
	case dataset.KindNull:
		return nil
	case dataset.KindNumber:
		return v.Num
	default:
		return v.Text()
	}
}

// featurizePool is the featurize-zipf mix: 90% one-row, 10% 32-row
// requests.
func featurizePool(seed int64, t *dataset.Table, cols []string) []entry {
	rng := rand.New(rand.NewSource(seed))
	src := newRowSource(rng, t, cols)
	out := make([]entry, poolSize)
	for i := range out {
		rows := 1
		if rng.Float64() < batchShare {
			rows = batchRows
		}
		out[i] = src.featurize(rows)
	}
	return out
}

// neighborsPool is the neighbors-vector mix: a uniformly drawn entity's
// vector plus N(0, 0.01) noise per dimension, k = 10, default ef.
func neighborsPool(seed int64, res *core.Result) []entry {
	rng := rand.New(rand.NewSource(seed))
	names := res.Embedding.Names()
	out := make([]entry, poolSize)
	for i := range out {
		q := noisyQuery(rng, res, names)
		body, err := json.Marshal(neighborsBody{Vector: q, K: neighborsK})
		if err != nil {
			panic(err) // finite float64s always encode
		}
		out[i] = entry{kind: kindNeighborsVector, body: body, vector: q}
	}
	return out
}

func noisyQuery(rng *rand.Rand, res *core.Result, names []string) []float64 {
	v, _ := res.Embedding.Vector(names[rng.Intn(len(names))])
	q := make([]float64, len(v))
	for j, x := range v {
		q[j] = x + rng.NormFloat64()*queryNoise
	}
	return q
}

// mixedPool is the mixed-reload mix: 60% one-row featurize, 30% GET
// neighbors by token and 10% GET embedding, tokens Zipf over the
// entities both generations hold so every lookup succeeds on either.
func mixedPool(seed int64, t *dataset.Table, cols []string, tokens []string) []entry {
	rng := rand.New(rand.NewSource(seed))
	src := newRowSource(rng, t, cols)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(tokens)-1))
	perm := rng.Perm(len(tokens))
	out := make([]entry, poolSize)
	for i := range out {
		switch p := rng.Float64(); {
		case p < 0.6:
			out[i] = src.featurize(1)
		case p < 0.9:
			out[i] = entry{kind: kindNeighborsToken, token: tokens[perm[zipf.Uint64()]]}
		default:
			out[i] = entry{kind: kindEmbedding, token: tokens[perm[zipf.Uint64()]]}
		}
	}
	return out
}

// commonTokens lists the entities present in every embedding, sorted.
func commonTokens(results ...*core.Result) []string {
	var out []string
	for _, name := range results[0].Embedding.Names() {
		ok := true
		for _, r := range results[1:] {
			if !r.Embedding.Has(name) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// oracle recomputes served answers in-process from the same bundle and
// index the daemon serves.
type oracle struct {
	res *core.Result
	ix  *ann.Index
}

var errMismatch = errors.New("served answer differs from the in-process oracle")

// cellValue maps a decoded JSON cell to a relational value exactly as
// the featurize handler does.
func cellValue(x any) dataset.Value {
	switch v := x.(type) {
	case nil:
		return dataset.Null()
	case float64:
		return dataset.Number(v)
	case bool:
		return dataset.String(strconv.FormatBool(v))
	case string:
		return dataset.String(v)
	default:
		return dataset.String(fmt.Sprint(v))
	}
}

// rowTable builds the one-row table the handler featurizes: the row's
// columns in fitted order.
func rowTable(table string, cols []string, row map[string]any) *dataset.Table {
	t := &dataset.Table{Name: table}
	for _, c := range cols {
		raw, ok := row[c]
		if !ok {
			continue
		}
		t.Columns = append(t.Columns, &dataset.Column{Name: c, Values: []dataset.Value{cellValue(raw)}})
	}
	return t
}

// featurize recomputes a featurize request's rows.
func (o *oracle) featurize(body []byte) ([][]float64, error) {
	var req featurizeBody
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	cols := o.res.Textifier.Columns(req.Table)
	out := make([][]float64, len(req.Rows))
	for i, row := range req.Rows {
		v, err := o.res.FeaturizeRow(rowTable(req.Table, cols, row), req.Table, req.Exclude, 0, -1, o.res.Config.Featurization)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// neighbors recomputes a neighbors query.
func (o *oracle) neighbors(e *entry) ([]ann.Result, error) {
	if e.kind == kindNeighborsToken {
		return o.ix.SearchName(e.token, neighborsK, 0)
	}
	return o.ix.SearchVector(e.vector, neighborsK, 0)
}

// check compares one served response body with the oracle, bit for bit.
func (o *oracle) check(e *entry, body []byte) error {
	switch e.kind {
	case kindFeaturize:
		var got featurizeResp
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := o.featurize(e.body)
		if err != nil {
			return err
		}
		if len(got.Features) != len(want) {
			return errMismatch
		}
		for i := range want {
			if !equalVec(got.Features[i], want[i]) {
				return errMismatch
			}
		}
	case kindNeighborsVector, kindNeighborsToken:
		var got neighborsResp
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := o.neighbors(e)
		if err != nil {
			return err
		}
		if got.Degraded || len(got.Neighbors) != len(want) {
			return errMismatch
		}
		for i, w := range want {
			if got.Neighbors[i].Token != w.Name || got.Neighbors[i].Score != w.Score {
				return errMismatch
			}
		}
	case kindEmbedding:
		var got embeddingResp
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, ok := o.res.Embedding.Vector(e.token)
		if !ok || !equalVec(got.Vector, want) {
			return errMismatch
		}
	}
	return nil
}

// recall is the share of the exact top-k (brute force) among the served
// neighbors of a neighbors response.
func (o *oracle) recall(e *entry, body []byte) (float64, error) {
	var got neighborsResp
	if err := json.Unmarshal(body, &got); err != nil {
		return 0, err
	}
	var exact []ann.Result
	var err error
	if e.kind == kindNeighborsToken {
		exact, err = o.ix.BruteForceName(e.token, neighborsK)
	} else {
		exact, err = o.ix.BruteForceVector(e.vector, neighborsK)
	}
	if err != nil {
		return 0, err
	}
	return overlap(got.Neighbors, exact), nil
}

func overlap(served []neighborItem, exact []ann.Result) float64 {
	want := make(map[string]bool, len(exact))
	for _, r := range exact {
		want[r.Name] = true
	}
	hit := 0
	for _, n := range served {
		if want[n.Token] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

func equalVec(a, b []float64) bool {
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
