// Package obs is SandTable's zero-dependency observability layer: a
// concurrency-safe metrics registry the hot exploration loops can update
// without lock contention, a TLC-style progress reporter for long checking
// runs, a structured JSONL event tracer for the implementation-level
// engine/replay layers, and pprof/expvar profiling hooks.
//
// The paper's headline claim is exploration *speed* (~10^9 distinct
// states/machine-day); this package is how the reproduction measures it
// while a run is in flight rather than only after it ends. All primitives
// are nil-safe: a nil *Counter, *Gauge, *Histogram, *Registry, or *Tracer
// accepts every call as a no-op, so instrumented hot paths need no
// conditional wiring.
package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: counts of observations at most
// each upper bound, plus a count and sum for mean computation. Buckets are
// cumulative on export (Prometheus-style `le` semantics).
type Histogram struct {
	bounds []int64        // sorted upper bounds; observations above all bounds land in +Inf
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram builds a histogram with the given sorted upper bounds.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts,
// Prometheus histogram_quantile-style: the target rank is located in its
// bucket and interpolated linearly between the bucket's bounds. Ranks
// landing in the +Inf bucket report the highest finite bound (the estimate
// is then a lower bound, as in Prometheus). Returns 0 for an empty or nil
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum int64
	for i, b := range h.bounds {
		prev := cum
		cum += h.counts[i].Load()
		if float64(cum) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			inBucket := cum - prev
			if inBucket == 0 {
				return float64(b)
			}
			frac := (rank - float64(prev)) / float64(inBucket)
			return float64(lo) + frac*float64(b-lo)
		}
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a named collection of metrics. Registration takes a short
// lock; updates through the returned handles are lock-free atomics, so the
// BFS hot loop can hold a *Counter and Add to it with no contention.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// StartPhase starts a named wall-clock phase timer; the returned func stops
// it, accumulating the elapsed time into counter "phase.<name>_ns". Safe on
// a nil registry (returns a no-op).
func (r *Registry) StartPhase(name string) func() {
	if r == nil {
		return func() {}
	}
	c := r.Counter("phase." + name + "_ns")
	start := time.Now()
	return func() { c.Add(time.Since(start).Nanoseconds()) }
}

// Snapshot renders every metric into a flat map: counters and gauges by
// name, histograms as <name>.count, <name>.sum, <name>.mean, estimated
// <name>.p50 / <name>.p90 / <name>.p99 quantiles, and cumulative
// <name>.le_<bound> / <name>.le_inf buckets. Nil registries snapshot empty.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = h.Count()
		out[name+".sum"] = h.Sum()
		if n := h.Count(); n > 0 {
			out[name+".mean"] = float64(h.Sum()) / float64(n)
			out[name+".p50"] = h.Quantile(0.50)
			out[name+".p90"] = h.Quantile(0.90)
			out[name+".p99"] = h.Quantile(0.99)
		}
		var cum int64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			out[name+".le_"+strconv.FormatInt(b, 10)] = cum
		}
		out[name+".le_inf"] = cum + h.counts[len(h.bounds)].Load()
	}
	return out
}
