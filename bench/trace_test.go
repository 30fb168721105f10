package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{TraceID: "a", ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		// Children cover [10, 40] and [30, 60] (overlapping) and [90,
		// 120], which is clipped to the parent: 60 ns covered in total.
		{TraceID: "a", ID: 2, Name: "child", Parent: 1, StartNs: 10, EndNs: 40},
		{TraceID: "a", ID: 3, Name: "child", Parent: 1, StartNs: 30, EndNs: 60},
		{TraceID: "a", ID: 4, Name: "late", Parent: 1, StartNs: 90, EndNs: 120},
		// Same ids in another trace must not count as children of "a".
		{TraceID: "b", ID: 1, Name: "root", StartNs: 0, EndNs: 50},
	}
	got := selfTimes(spans)
	for name, want := range map[string]time.Duration{"root": 40 + 50, "child": 30 + 30, "late": 30} {
		if got[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, got[name], want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.start("x", "outer", 0)
	tr.time("x", "inner", tr.id(root), func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].EndNs < tr.spans[1].EndNs {
		t.Fatalf("spans not nested: %+v", tr.spans)
	}
}
