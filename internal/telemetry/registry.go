// Package telemetry is the repository's zero-dependency observability
// layer: a metrics registry (counters, gauges, fixed-bucket histograms)
// with Prometheus-style text exposition, a JSONL structured event log, and
// run manifests that make every results artifact traceable to the exact
// configuration that produced it.
//
// The package is built for simulator hot paths: every instrument method is
// a single atomic operation, and every instrument (and the registry
// itself) is nil-safe, so disabled telemetry costs one nil check and the
// instrumented code needs no conditionals:
//
//	var reg *telemetry.Registry // nil: telemetry off
//	c := reg.Counter("retstack_squashes_total", "RUU entries squashed")
//	c.Inc() // no-op when reg was nil
//
// Telemetry is strictly observational. Attaching any of it to a simulation
// or a sweep must never change simulated results; the experiment tables
// stay byte-identical with it on or off.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families. The zero value is not usable; a
// nil *Registry is: every constructor on it returns a nil instrument whose
// methods no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family groups every labeled child of one metric name under a shared
// HELP/TYPE declaration.
type family struct {
	name     string
	help     string
	typ      string
	children map[string]any // rendered label string -> instrument
	order    []string       // label strings in creation order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns (creating if needed) the instrument for name+labels,
// where make builds a fresh instrument. It panics if name exists with a
// different type: that is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help, typ string, labels []string, mk func() any) any {
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs")
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, children: map[string]any{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	if c, ok := f.children[ls]; ok {
		return c
	}
	c := mk()
	f.children[ls] = c
	f.order = append(f.order, ls)
	return c
}

// renderLabels formats key/value pairs as a stable `{k="v",...}` string
// (sorted by key; empty for no labels).
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	s := "{"
	for i, p := range pairs {
		if i > 0 {
			s += ","
		}
		s += p.k + `="` + escapeLabel(p.v) + `"`
	}
	return s + "}"
}

func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Counter returns the counter for name+labels, creating it on first use.
// Labels are alternating key/value pairs. Nil registry returns nil.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "counter", labels, func() any { return &Counter{} }).(*Counter)
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Gauge returns the gauge for name+labels, creating it on first use. Nil
// registry returns nil.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "gauge", labels, func() any { return &Gauge{} }).(*Gauge)
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (which may be negative). No-op on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed cumulative buckets, Prometheus
// style: bucket i counts observations <= Buckets[i], with an implicit
// +Inf bucket at the end.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Histogram returns the histogram for name+labels, creating it on first
// use with the given ascending upper bounds. Nil registry returns nil.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: %s bucket bounds not ascending", name))
		}
	}
	return r.lookup(name, help, "histogram", labels, func() any {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}).(*Histogram)
}

// Observe records one observation. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ObserveInt records an integer observation (occupancies, depths).
func (h *Histogram) ObserveInt(v int) { h.Observe(float64(v)) }
