package main

import (
	"math"
	"testing"
)

const promBefore = `# HELP leva_rowcache_hits_total Featurized-row cache hits.
# TYPE leva_rowcache_hits_total counter
leva_rowcache_hits_total 10
leva_rowcache_misses_total 30
leva_shed_total{reason="capacity"} 1
leva_shed_total{reason="queue_timeout"} 2
leva_http_requests_total{endpoint="featurize"} 40
leva_http_requests_total{endpoint="odd \"name\", with\\slash"} 7
leva_ann_query_seconds_bucket{le="0.0001"} 0
leva_ann_query_seconds_bucket{le="0.00025"} 10
leva_ann_query_seconds_bucket{le="0.0005"} 10
leva_ann_query_seconds_bucket{le="+Inf"} 10
leva_ann_query_seconds_sum 0.002
leva_ann_query_seconds_count 10
leva_go_heap_alloc_bytes 1.2e+07
`

const promAfter = `leva_rowcache_hits_total 100
leva_rowcache_misses_total 50
leva_shed_total{reason="capacity"} 4
leva_shed_total{reason="queue_timeout"} 2
leva_http_requests_total{endpoint="featurize"} 140
leva_ann_query_seconds_bucket{le="0.0001"} 0
leva_ann_query_seconds_bucket{le="0.00025"} 60
leva_ann_query_seconds_bucket{le="0.0005"} 110
leva_ann_query_seconds_bucket{le="+Inf"} 110
leva_ann_query_seconds_sum 0.03
leva_ann_query_seconds_count 110
`

func TestParsePromCounters(t *testing.T) {
	before, err := parseProm(promBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(promAfter)
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, "leva_rowcache_hits_total", nil); got != 90 {
		t.Errorf("hits delta = %g, want 90", got)
	}
	if got := delta(before, after, "leva_shed_total", nil); got != 3 {
		t.Errorf("shed delta over all reasons = %g, want 3", got)
	}
	if got := after.sum("leva_shed_total", map[string]string{"reason": "capacity"}); got != 4 {
		t.Errorf("capacity sheds = %g, want 4", got)
	}
	if got := before.sum("leva_http_requests_total", map[string]string{"endpoint": `odd "name", with\slash`}); got != 7 {
		t.Errorf("escaped label value lookup = %g, want 7", got)
	}
	if got := before.sum("leva_go_heap_alloc_bytes", nil); got != 1.2e7 {
		t.Errorf("heap = %g, want 1.2e7", got)
	}
	// 100 new observations: 50 in (100µs, 250µs], 50 in (250µs, 500µs];
	// the median sits at the top of the first bucket.
	if got := histQuantile(before, after, "leva_ann_query_seconds", nil, 0.5); math.Abs(got-0.00025) > 1e-12 {
		t.Errorf("p50 = %g, want 0.00025", got)
	}
	if got := histQuantile(before, after, "leva_ann_query_seconds", nil, 0.75); math.Abs(got-0.000375) > 1e-12 {
		t.Errorf("p75 = %g, want 0.000375", got)
	}
	if got := histQuantile(before, before, "leva_ann_query_seconds", nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile with no new observations = %g, want NaN", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"leva_x", "leva_x{a=\"b\" 1", "leva_x notanumber", "leva_x{a=b} 1"} {
		if _, err := parseProm(bad + "\n"); err == nil {
			t.Errorf("parseProm(%q) succeeded, want an error", bad)
		}
	}
}
