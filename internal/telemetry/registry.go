// Package telemetry is the stack's dependency-free observability core: a
// metrics registry of atomic counters, gauges and fixed-bucket histograms
// with allocation-free hot paths, plus Prometheus text-format exposition
// (expose.go) and a minimal exposition parser (parse.go) for round-trip
// tests and scrapers.
//
// Instruments are registered once (get-or-create under a mutex) and then
// updated lock-free: Counter.Add and Histogram.Observe touch only atomics,
// so instrumenting a hot path costs a few nanoseconds and zero allocations.
// Telemetry is strictly write-only from the simulation's point of view —
// nothing in this package feeds back into simulated state — which is what
// keeps instrumented runs bitwise-identical to uninstrumented ones (the
// determinism guarantee DESIGN.md §4g documents and
// internal/experiments/telemetry_test.go enforces).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use, but counters are normally obtained from a Registry so they expose.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored — counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Add increments the gauge by d (CAS loop; allocation free).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with atomic counts and sum. Bounds
// are inclusive upper bounds in ascending order; a final implicit +Inf
// bucket catches the rest. Observe is lock- and allocation-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	// Inline binary search: sort.SearchFloat64s closes over the slice and
	// this path must stay allocation free.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

// ObserveN records n identical observations in one shot — how sketch-fed
// exporters replay a bucket's worth of a fleet campaign without n atomic
// round trips.
func (h *Histogram) ObserveN(x float64, n int64) {
	if n <= 0 {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(n)
	h.count.Add(n)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+float64(x*float64(n)))) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns a snapshot of per-bucket counts (the last entry is
// the +Inf bucket).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// LatencyBuckets are the default millisecond buckets for latency
// histograms, spanning sub-millisecond cells to ten-second jobs.
var LatencyBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// metric kinds.
const (
	kindCounter = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// series is one labelled instance of a family.
type series struct {
	labels  string // rendered {k="v",...} or ""
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   int
	bounds []float64
	order  []string
	series map[string]*series
}

// Registry holds metric families and exposes them in Prometheus text
// format. Get-or-create registration takes a mutex; the returned
// instruments are updated lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// defaultRegistry is the process-wide registry fleetd serves on /metrics.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// labelString renders "k1","v1","k2","v2",... as {k1="v1",k2="v2"}.
// Label pairs must arrive complete; a dangling key is a programming error.
func labelString(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the family, creating it on first use and panicking on a
// kind mismatch (two call sites disagreeing about one name is a bug).
func (r *Registry) lookup(name, help string, kind int, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with a different type", name))
	}
	return f
}

func (f *family) get(labels string) (*series, bool) {
	s, ok := f.series[labels]
	if !ok {
		s = &series{labels: labels}
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s, !ok
}

// Counter returns the counter for name with the given label pairs,
// registering it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter, nil)
	s, fresh := f.get(labelString(labels))
	if fresh {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge for name with the given label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge, nil)
	s, fresh := f.get(labelString(labels))
	if fresh {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is sampled at exposition time —
// the zero-overhead way to expose state the owner already tracks (queue
// depth, running workers). Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGaugeFunc, nil)
	s, _ := f.get(labelString(labels))
	s.fn = fn
}

// Histogram returns the histogram for name with the given inclusive bucket
// upper bounds and label pairs. The bounds of the first registration win.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram, bounds)
	s, fresh := f.get(labelString(labels))
	if fresh {
		s.hist = newHistogram(f.bounds)
	}
	return s.hist
}
