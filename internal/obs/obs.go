// Package obs is the unified observability layer: a dependency-free
// metrics registry that every counter of the system registers into —
// the kvstore cluster counters, the tier counters of the tiered
// engine, the decoded-delta cache statistics, and per-operation
// latency histograms recorded by the query layer. The registry is read
// one way, through its Prometheus text-format exposition
// (WritePrometheus), so the same numbers drive the /metrics endpoint
// of a store's DebugHandler and hgs-inspect -metrics.
//
// The registry holds three metric kinds:
//
//   - Counter: a monotonically increasing int64 (or a func-backed
//     counter sampling an external cumulative value at read time),
//   - Gauge: a settable level (or a func-backed sample),
//   - Histogram: log-bucketed latency/size distributions with
//     estimated quantiles.
//
// Metric identity is the family name plus a sorted label set; the
// paper's cost-model terms map onto families (deltas fetched → KV
// reads, round-trips, eventlist scans → per-table trace counters) so
// profiles read back in the paper's vocabulary. All types are safe
// for concurrent use (including under the race detector); a nil
// *Registry is valid and records nothing, which keeps the query-layer
// hot path free of conditionals when observability is disabled.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind enumerates the metric kinds a family can hold.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a level that can go up and down.
	KindGauge
	// KindHistogram is a bucketed distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one name="value" dimension of a metric series.
type Label struct {
	Name, Value string
}

// L builds a Label (shorthand for composite literals at call sites).
func L(name, value string) Label { return Label{Name: name, Value: value} }

// signature renders a sorted, deduplicated label set as the series key
// (and the exact text between braces in the exposition).
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	return b.String()
}

// series is one labeled instance of a family: exactly one of the value
// holders is active, per the family's kind.
type series struct {
	sig  string
	val  atomic.Int64 // counters and plain gauges
	fn   func() float64
	hist *Histogram
}

// value returns the series' current scalar (counters, gauges).
func (s *series) value() float64 {
	if s.fn != nil {
		return s.fn()
	}
	return float64(s.val.Load())
}

// family is all series of one metric name, sharing kind and help text.
type family struct {
	name, help string
	kind       Kind
	series     map[string]*series
	order      []*series // registration order; exposition sorts by sig
}

// Registry is the metric sink. The zero value is not usable; create
// with NewRegistry. A nil *Registry is valid everywhere and records
// nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating as needed) the series of name+labels,
// verifying kind consistency across the family. Re-registering an
// existing series returns the existing one — except func-backed
// metrics, where the new sampler replaces the old (a re-attached
// handle re-registers its closures over fresh objects).
func (r *Registry) lookup(name, help string, kind Kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	sig := signature(labels)
	s := f.series[sig]
	if s == nil {
		s = &series{sig: sig}
		f.series[sig] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter returns the counter series name+labels, creating it at zero.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.lookup(name, help, KindCounter, labels)}
}

// CounterFunc registers a func-backed counter: fn is sampled at
// exposition time and must report a cumulative value (the
// hook existing atomic counters register through). Re-registering
// replaces the sampler.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, help, KindCounter, labels).fn = fn
}

// Gauge returns the gauge series name+labels, creating it at zero.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.lookup(name, help, KindGauge, labels)}
}

// GaugeFunc registers a func-backed gauge sampled at read time.
// Re-registering replaces the sampler.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, help, KindGauge, labels).fn = fn
}

// Histogram returns the histogram series name+labels, creating it with
// the given bucket upper bounds (ascending; +Inf is implicit). All
// series of one family must share bounds; nil bounds select
// DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = newHistogram(bounds)
	}
	return s.hist
}

// Counter is a monotonically increasing metric. A nil *Counter is
// valid and records nothing.
type Counter struct{ s *series }

// Add increments the counter by n (negative n is ignored: counters
// only go up).
func (c *Counter) Add(n int64) {
	if c == nil || c.s == nil || n <= 0 {
		return
	}
	c.s.val.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for func-backed counters,
// which are sampled by the exposition instead).
func (c *Counter) Value() int64 {
	if c == nil || c.s == nil {
		return 0
	}
	return c.s.val.Load()
}

// Gauge is a settable level. A nil *Gauge is valid and records
// nothing.
type Gauge struct{ s *series }

// Set stores the gauge's current level.
func (g *Gauge) Set(v int64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.val.Store(v)
}

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.val.Add(n)
}

// Value returns the gauge's current level.
func (g *Gauge) Value() int64 {
	if g == nil || g.s == nil {
		return 0
	}
	return g.s.val.Load()
}

// visit walks every family and series in deterministic order (families
// by registration, series by sorted signature) under the registry
// lock. fn must not call back into the registry.
func (r *Registry) visit(fn func(f *family, s *series)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	for _, f := range fams {
		r.mu.Lock()
		ss := append([]*series(nil), f.order...)
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].sig < ss[j].sig })
		for _, s := range ss {
			fn(f, s)
		}
	}
}
