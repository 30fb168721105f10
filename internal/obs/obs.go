// Package obs is Leva's metrics registry: dependency-free counters,
// gauges and histograms with fixed bucket layouts, rendered in
// Prometheus text exposition format.
//
// Every subsystem instruments itself against this one package — the
// offline pipeline (internal/core), the serving daemon (internal/serve),
// the worker pool (internal/parallel), and the durability layer
// (internal/durable) — so one scrape of `GET /metrics` on levad, or one
// `leva embed -metrics-dump`, shows the whole system in one catalog
// (documented metric by metric in docs/OBSERVABILITY.md).
//
// # Instruments and registries
//
// Instruments are standalone values (NewCounter, NewGauge,
// NewHistogram, their label-carrying *Vec forms, and the pull-style
// NewGaugeFunc/NewCounterFunc) that can be attached to any number of
// Registry instances with Register. A Registry is a named collection
// that renders: WritePrometheus emits the text exposition format,
// Snapshot a /debug/vars-style JSON map. Registry.Counter and friends
// are get-or-create conveniences for registry-owned instruments.
//
// All instruments are safe for concurrent use and lock-free on the hot
// path (atomics only); registries take a read lock only while
// rendering.
package obs
