package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"time"
)

// epoch is the zero of every span timestamp in one benchmark process.
var epoch = time.Now()

// span is one timed call. Spans of one request (or one pipeline pass)
// share a trace id; parent is the id of the enclosing span, 0 for a
// root. Spans are kept in memory and written when the run ends.
type span struct {
	TraceID string `json:"trace_id"`
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer records spans around calls the benchmark makes into the
// program's packages.
type tracer struct {
	spans []span
	ids   map[string]int
}

func newTracer() *tracer { return &tracer{ids: map[string]int{}} }

// start opens a span now and returns its handle.
func (t *tracer) start(trace, name string, parent int) int {
	t.ids[trace]++
	t.spans = append(t.spans, span{TraceID: trace, ID: t.ids[trace], Name: name, Parent: parent,
		StartNs: int64(time.Since(epoch))})
	return len(t.spans) - 1
}

// end closes the span behind handle h and returns its duration.
func (t *tracer) end(h int) time.Duration {
	t.spans[h].EndNs = int64(time.Since(epoch))
	return t.spans[h].dur()
}

// id is the span id of handle h, for use as a parent.
func (t *tracer) id(h int) int { return t.spans[h].ID }

// time runs fn inside a span and returns its duration.
func (t *tracer) time(trace, name string, parent int, fn func()) time.Duration {
	h := t.start(trace, name, parent)
	fn()
	return t.end(h)
}

// clientSpans are the load generator's spans of one request: the whole
// request from its due time, the wait for a free connection, and the
// service time on the wire.
func clientSpans(i int, due time.Time, wait time.Duration, sendStart, end time.Time) []span {
	trace := "client-" + strconv.Itoa(i)
	out := []span{{TraceID: trace, ID: 1, Name: "client.request", StartNs: int64(due.Sub(epoch)), EndNs: int64(end.Sub(epoch))}}
	if wait > 0 {
		out = append(out, span{TraceID: trace, ID: 2, Name: "client.conn_wait", Parent: 1,
			StartNs: int64(due.Sub(epoch)), EndNs: int64(due.Add(wait).Sub(epoch))})
	}
	return append(out, span{TraceID: trace, ID: 3, Name: "client.service", Parent: 1,
		StartNs: int64(sendStart.Sub(epoch)), EndNs: int64(end.Sub(epoch))})
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		trace string
		id    int
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.TraceID, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[key{s.TraceID, s.ID}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered := int64(0)
		cur := s.StartNs
		for _, c := range kids {
			lo, hi := max(c.StartNs, cur), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
