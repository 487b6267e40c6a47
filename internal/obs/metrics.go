// Package obs is the telemetry layer of the PARIS serving system: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket histograms with Prometheus text-format exposition), plus
// lightweight cross-process request tracing (trace/span IDs propagated via
// the X-Paris-Trace header and emitted as structured span logs). Every
// process of a deployment — aligner, shard, router — owns one Registry and
// serves it on GET /metrics; perfbench scrapes the router's to report its
// failover and hedge counters beside client-side latency.
//
// The package is deliberately hand-rolled: the repository's tier-1 tests
// stay hermetic (no client_golang), and the hot-path cost of an instrument
// is one atomic add.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds in seconds, spanning
// sub-millisecond cache hits to multi-second fan-outs.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; create one with NewRegistry. All
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
}

// OnScrape registers a hook run at the start of every WriteText call,
// before any family renders. Sampled instruments (the Go runtime metrics)
// use it to refresh their gauges at scrape time instead of polling.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a help string, a type, and the
// label-keyed children.
type family struct {
	name, help, typ string
	labelNames      []string
	buckets         []float64 // histogram families only

	mu   sync.Mutex
	kids map[string]sample // key: rendered label suffix (`{a="x"}` or "")
}

// sample is one exposable child of a family.
type sample interface {
	// writeTo renders the child's sample lines. labels is the rendered
	// label suffix without the closing brace machinery handled here.
	writeTo(w io.Writer, name, labels string)
}

func (r *Registry) family(name, help, typ string, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
				name, typ, len(labelNames), f.typ, len(f.labelNames)))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: labelNames, buckets: buckets,
		kids: make(map[string]sample),
	}
	r.families[name] = f
	return f
}

// child returns the family's sample for the given label values, creating it
// with mk on first use. Label cardinality is the caller's responsibility:
// every instrument here is labeled by a small closed set (routes, methods,
// status classes, shard indexes, job kinds).
func (f *family) child(values []string, mk func() sample) sample {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := renderLabels(f.labelNames, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.kids[key]; ok {
		return s
	}
	s := mk()
	f.kids[key] = s
	return s
}

// renderLabels renders `{name="value",...}` (or "" without labels) with
// Prometheus escaping.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
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

// WriteText renders every family in Prometheus text format, families sorted
// by name and children by label value, so two exposures of the same state
// are byte-identical (the property the exposition golden test pins).
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	hooks := r.hooks
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.kids))
		for k := range f.kids {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, k := range keys {
			f.kids[k].writeTo(w, f.name, k)
		}
		f.mu.Unlock()
	}
}

// ---- counters ----

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) writeTo(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter registers (or finds) an unlabeled counter. Counter names should
// end in _total per Prometheus convention.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter", nil, nil)
	return f.child(nil, func() sample { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct {
	f *family
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, "counter", labelNames, nil)}
}

// With returns the child counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues, func() sample { return &Counter{} }).(*Counter)
}

// ---- gauges ----

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (negative to subtract).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) writeTo(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge", nil, nil)
	return f.child(nil, func() sample { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct {
	f *family
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, "gauge", labelNames, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues, func() sample { return &Gauge{} }).(*Gauge)
}

// ---- histograms ----

// Histogram observes a distribution over fixed bucket bounds. Observations
// are two atomic adds plus one CAS loop for the sum; quantiles are
// estimated from the bucket counts at snapshot time.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// addN folds n pre-counted observations of value v into the histogram in
// two atomic adds (plus the sum CAS). The runtime-metrics bridge uses it
// to replay GC-pause bucket deltas without n Observe calls.
func (h *Histogram) addN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v*float64(n))) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count  uint64
	Sum    float64
	Bounds []float64 // upper bounds; the +Inf bucket follows
	Counts []uint64  // per-bucket (not cumulative), len(Bounds)+1
}

// Snapshot copies the current state. The copy is not atomic across buckets
// (a racing Observe may land between reads), which bounds the error at a
// handful of observations — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket holding the rank, the same estimate Prometheus's
// histogram_quantile computes. Values in the +Inf bucket clamp to the
// highest finite bound. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		seen += float64(c)
		if seen < rank || c == 0 {
			continue
		}
		if i == len(s.Bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		frac := (rank - (seen - float64(c))) / float64(c)
		return lower + (upper-lower)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

func (h *Histogram) writeTo(w io.Writer, name, labels string) {
	// _bucket lines carry the extra le label inside the same brace set.
	trimmed := strings.TrimSuffix(labels, "}")
	sep := "{"
	if trimmed != "" {
		sep = trimmed + ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d\n", name, sep, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, sep, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (nil uses DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, "histogram", nil, buckets)
	return f.child(nil, func() sample { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f *family
}

// HistogramVec registers (or finds) a labeled histogram family (nil buckets
// uses DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.family(name, help, "histogram", labelNames, buckets)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues, func() sample { return newHistogram(v.f.buckets) }).(*Histogram)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
