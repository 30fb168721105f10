package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is a named collection of metric families that renders as
// one Prometheus exposition (WritePrometheus) or one JSON snapshot
// (Snapshot). Families are attached with Register, or created
// in-place with the get-or-create methods (Counter, Gauge, …), which
// return the existing instrument when the name is already registered.
//
// A family may be attached to any number of registries (package-level
// instruments like internal/parallel's worker gauges register into
// both the daemon's registry and a CLI build's), and attachment is
// idempotent. Attaching a *different* family under an
// already-registered name panics: metric names are an API, and a
// silent collision would corrupt whichever dashboard reads them.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Register attaches instruments (any of this package's metric types)
// to the registry. Re-registering the same instrument is a no-op;
// registering a different instrument under an existing name panics.
func (r *Registry) Register(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		f := c.metricFamily()
		if existing, ok := r.families[f.name]; ok {
			if existing != f {
				panic(fmt.Sprintf("obs: duplicate registration of metric %q with a different instrument", f.name))
			}
			continue
		}
		r.families[f.name] = f
	}
}

// lookup returns the family registered under name, or nil.
func (r *Registry) lookup(name string, kind Kind) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f != nil && f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q is a %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the registry's counter named name, creating and
// registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if f := r.lookup(name, KindCounter); f != nil {
		return &Counter{f: f, s: f.with()}
	}
	c := NewCounter(name, help)
	r.Register(c)
	return c
}

// CounterVec is Counter for a labeled family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if f := r.lookup(name, KindCounter); f != nil {
		return &CounterVec{f: f}
	}
	v := NewCounterVec(name, help, labelNames...)
	r.Register(v)
	return v
}

// Gauge returns the registry's gauge named name, creating and
// registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if f := r.lookup(name, KindGauge); f != nil {
		return &Gauge{f: f, s: f.with()}
	}
	g := NewGauge(name, help)
	r.Register(g)
	return g
}

// GaugeVec is Gauge for a labeled family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if f := r.lookup(name, KindGauge); f != nil {
		return &GaugeVec{f: f}
	}
	v := NewGaugeVec(name, help, labelNames...)
	r.Register(v)
	return v
}

// Histogram returns the registry's histogram named name, creating and
// registering it (with the given bounds) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if f := r.lookup(name, KindHistogram); f != nil {
		return &Histogram{f: f, s: f.with()}
	}
	h := NewHistogram(name, help, bounds)
	r.Register(h)
	return h
}

// HistogramVec is Histogram for a labeled family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if f := r.lookup(name, KindHistogram); f != nil {
		return &HistogramVec{f: f}
	}
	v := NewHistogramVec(name, help, bounds, labelNames...)
	r.Register(v)
	return v
}

// FamilyInfo describes one registered metric family — the unit of the
// documented catalog (docs/OBSERVABILITY.md), and what the
// catalog-sync test diffs against that document.
type FamilyInfo struct {
	Name   string
	Kind   Kind
	Help   string
	Labels []string
}

// Families lists the registered families sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.RLock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{
			Name:   f.name,
			Kind:   f.kind,
			Help:   f.help,
			Labels: append([]string(nil), f.labelNames...),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sortedFamilies returns the families sorted by name for rendering.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
