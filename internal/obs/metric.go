package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the Prometheus metric type of a family.
type Kind uint8

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// atomicFloat is a float64 updated with lock-free CAS loops, so
// counters and histogram sums can carry fractional values (seconds)
// without a mutex on the hot path.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// series is one label-value combination of a family: a single rendered
// sample line (or bucket set, for histograms).
type series struct {
	labelValues []string

	// val is the counter or gauge value.
	val atomicFloat

	// Histogram state: counts has one slot per bucket bound plus one
	// overflow slot; sum accumulates observed values.
	counts []atomic.Uint64
	sum    atomicFloat
}

// family is one named metric with a fixed label schema; instruments
// are views onto (family, series) pairs, and registries hold sets of
// families.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	// bounds are the histogram bucket upper bounds (strictly
	// increasing); nil for counters and gauges.
	bounds []float64
	// fn, when non-nil, makes this a pull-style single-series family
	// whose value is read at render time (GaugeFunc / CounterFunc).
	fn func() float64

	mu       sync.RWMutex
	children map[string]*series
}

// seriesKey joins label values into a map key; 0x1f never occurs in
// sane label values and keeps ("a","bc") distinct from ("ab","c").
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

// with returns (creating if needed) the series for the given label
// values.
func (f *family) with(values ...string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s := f.children[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.children[key]; s != nil {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.counts = make([]atomic.Uint64, len(f.bounds)+1)
	}
	f.children[key] = s
	return s
}

// snapshotSeries returns the children sorted by label values, for
// deterministic rendering.
func (f *family) snapshotSeries() []*series {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	f.mu.RUnlock()
	return out
}

func newFamily(name, help string, kind Kind, labelNames []string, bounds []float64) *family {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: metric %q: bucket bounds must be strictly increasing", name))
		}
	}
	return &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		bounds:     append([]float64(nil), bounds...),
		children:   make(map[string]*series),
	}
}

// Collector is implemented by every instrument so registries can
// attach them. It is satisfied only by this package's types.
type Collector interface{ metricFamily() *family }

// Counter is a monotonically increasing value. A Counter obtained
// from a CounterVec registers its whole family.
type Counter struct {
	f *family
	s *series
}

func (c *Counter) metricFamily() *family { return c.f }

// Inc adds one.
func (c *Counter) Inc() { c.s.val.Add(1) }

// Add adds v, which must not be negative (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter Add with negative value")
	}
	c.s.val.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.s.val.Load() }

// NewCounter returns a standalone counter, attachable to registries
// with Registry.Register.
func NewCounter(name, help string) *Counter {
	f := newFamily(name, help, KindCounter, nil, nil)
	return &Counter{f: f, s: f.with()}
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

func (v *CounterVec) metricFamily() *family { return v.f }

// With returns the counter for one label-value combination, creating
// it on first use. The combination's sample renders as zero until the
// first Add/Inc.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{f: v.f, s: v.f.with(labelValues...)}
}

// NewCounterVec returns a standalone labeled counter family.
func NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: newFamily(name, help, KindCounter, labelNames, nil)}
}

// Gauge is a value that can move both ways.
type Gauge struct {
	f *family
	s *series
}

func (g *Gauge) metricFamily() *family { return g.f }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.s.val.Store(v) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) { g.s.val.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.s.val.Load() }

// NewGauge returns a standalone gauge.
func NewGauge(name, help string) *Gauge {
	f := newFamily(name, help, KindGauge, nil, nil)
	return &Gauge{f: f, s: f.with()}
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

func (v *GaugeVec) metricFamily() *family { return v.f }

// With returns the gauge for one label-value combination, creating it
// on first use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{f: v.f, s: v.f.with(labelValues...)}
}

// NewGaugeVec returns a standalone labeled gauge family.
func NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: newFamily(name, help, KindGauge, labelNames, nil)}
}

// funcView is a pull-style single-series family (GaugeFunc or
// CounterFunc): its value is fn() at render time.
type funcView struct{ f *family }

func (v *funcView) metricFamily() *family { return v.f }

// NewGaugeFunc returns a gauge whose value is read from fn at render
// time — for values something else already tracks (queue depths,
// cache sizes, uptime). fn must be safe for concurrent calls.
func NewGaugeFunc(name, help string, fn func() float64) Collector {
	f := newFamily(name, help, KindGauge, nil, nil)
	f.fn = fn
	return &funcView{f: f}
}

// NewCounterFunc is NewGaugeFunc rendered as a counter: fn must be
// monotonically non-decreasing.
func NewCounterFunc(name, help string, fn func() float64) Collector {
	f := newFamily(name, help, KindCounter, nil, nil)
	f.fn = fn
	return &funcView{f: f}
}

// Histogram is a fixed-bucket distribution. Bucket upper bounds are
// inclusive (Prometheus `le` semantics): an observation exactly on a
// bound lands in that bound's bucket.
type Histogram struct {
	f *family
	s *series
}

func (h *Histogram) metricFamily() *family { return h.f }

// Observe records one value.
func (h *Histogram) Observe(v float64) { observe(h.f, h.s, v) }

// ObserveDuration records a duration in seconds, the Prometheus base
// unit for time.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return seriesCount(h.s) }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.s.sum.Load() }

// BucketCounts returns the per-bucket (non-cumulative) counts, the
// last slot being the overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.s.counts))
	for i := range h.s.counts {
		out[i] = h.s.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (0 < q < 1) as the upper bound
// of the bucket holding that rank; the overflow bucket reports the
// largest finite bound. Zero with no observations. The estimate is
// deliberately coarse — it is the bucket layout that bounds its error.
func (h *Histogram) Quantile(q float64) float64 {
	return quantile(h.f.bounds, h.s, q)
}

func observe(f *family, s *series, v float64) {
	i := 0
	for i < len(f.bounds) && v > f.bounds[i] {
		i++
	}
	s.counts[i].Add(1)
	s.sum.Add(v)
}

func seriesCount(s *series) uint64 {
	var total uint64
	for i := range s.counts {
		total += s.counts[i].Load()
	}
	return total
}

func quantile(bounds []float64, s *series, q float64) float64 {
	total := seriesCount(s)
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := uint64(q*float64(total)) + 1
	var cum uint64
	for i := range s.counts {
		cum += s.counts[i].Load()
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			return bounds[len(bounds)-1]
		}
	}
	return bounds[len(bounds)-1]
}

// NewHistogram returns a standalone histogram with the given bucket
// upper bounds (strictly increasing; an implicit +Inf bucket follows).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	f := newFamily(name, help, KindHistogram, nil, bounds)
	return &Histogram{f: f, s: f.with()}
}

// HistogramVec is a histogram family partitioned by labels; every
// series shares the family's bucket layout.
type HistogramVec struct{ f *family }

func (v *HistogramVec) metricFamily() *family { return v.f }

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.with(labelValues...)}
}

// NewHistogramVec returns a standalone labeled histogram family.
func NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: newFamily(name, help, KindHistogram, labelNames, bounds)}
}

// LatencyBuckets is the request-latency bucket layout shared by the
// serving daemon's HTTP histograms: log-spaced 50µs → 10s, matching
// the hand-rolled histogram internal/serve used before this package
// existed (so dashboards keep their resolution across the migration).
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// StageBuckets is the bucket layout for offline pipeline stages, which
// run milliseconds to minutes: log-spaced 1ms → 600s.
var StageBuckets = []float64{
	1e-3, 5e-3, 25e-3, 100e-3, 250e-3,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// FsyncBuckets is the bucket layout for single filesystem operations
// (fsync, rename): log-spaced 10µs → 2.5s.
var FsyncBuckets = []float64{
	10e-6, 50e-6, 100e-6, 500e-6,
	1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3, 1, 2.5,
}
