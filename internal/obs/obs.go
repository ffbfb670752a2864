// Package obs is the repository's stdlib-only observability layer:
// counters, gauges, and histograms in a concurrency-safe registry, plus
// span-based tracing of the hybrid workflow phases (presolve →
// portfolio → repair → feasibility filter → selection) and of dlb
// rounds.
//
// Every solver backend emits into one registry through the engine layer
// (solve.WithObs); the registry renders snapshots as aligned text and
// CSV via internal/report and as a structured JSON event log, so one
// `qulrb -metrics` run or one cmd/experiments manifest shows where the
// work went — per-phase wall time, branch-and-bound node counts,
// annealer acceptance rates, resilient retries and breaker transitions.
//
// Design rules:
//
//   - Nil-safety end to end: a nil *Registry (and the nil metric
//     handles it returns) no-ops, so call sites instrument
//     unconditionally and pay nothing when observability is off.
//   - Time is injected: SetNow replaces the registry's time source, so
//     span durations are deterministic under the fake clock in tests.
//   - Bounded memory: the span and event logs cap out and count what
//     they dropped instead of growing without limit in long dlb runs.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil receiver no-ops.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored: counters only
// go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (breaker state, acceptance
// rate). The zero value is ready to use; a nil receiver no-ops.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates a distribution: count, sum, min, max, and
// counts per bucket (bucket i counts observations <= Bounds[i]; one
// implicit overflow bucket catches the rest). A nil receiver no-ops.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// DefBuckets are the default histogram bounds: exponential from 0.25 to
// 16384, sized for millisecond-scale phase durations.
var DefBuckets = []float64{0.25, 1, 4, 16, 64, 256, 1024, 4096, 16384}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
}

// snapshot returns a consistent copy of the histogram's state.
func (h *Histogram) snapshot() (count int64, sum, min, max float64, bounds []float64, counts []int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, h.min, h.max,
		append([]float64(nil), h.bounds...), append([]int64(nil), h.counts...)
}

// maxSpans bounds the per-registry span log; older spans survive (they
// are usually the interesting setup phases) and later ones are counted
// as dropped.
const maxSpans = 8192

// maxEvents bounds the ad-hoc event log the same way.
const maxEvents = 8192

// Registry is a concurrency-safe collection of named metrics and
// completed spans. All methods are safe for concurrent use; a nil
// registry no-ops everywhere, so instrumented code never branches on
// "is observability on".
type Registry struct {
	mu       sync.RWMutex
	now      func() time.Time
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanRecord
	dropped  int64
	events   []Event
	evDrop   int64
}

// NewRegistry returns an empty registry on the wall clock.
func NewRegistry() *Registry {
	return &Registry{
		now:      time.Now,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetNow injects the registry's time source (pass a solve.Clock's Now
// in tests to make span durations deterministic). A nil fn restores the
// wall clock.
func (r *Registry) SetNow(fn func() time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn == nil {
		fn = time.Now
	}
	r.now = fn
}

func (r *Registry) clock() func() time.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.now
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
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

// LookupCounter returns the named counter if something has created it,
// and nil (a counter that reads 0) otherwise. Unlike Counter it never
// creates one, so a reader polling for another layer's counters does
// not publish zero-valued metrics that layer never wrote.
func (r *Registry) LookupCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counters[name]
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
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

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (DefBuckets when empty; later calls reuse
// the first bounds). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
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
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
