// Package telemetry is a dependency-free metrics registry: atomic
// counters, gauges, and fixed-bucket histograms, identified by name plus
// label pairs and exported in the Prometheus text exposition format
// (version 0.0.4). It exists so every layer of tsq — engine, planner,
// server, stream hub — can feed one scrape surface
// (GET /metrics on tsqd) without pulling in a client library.
//
// Hot paths guard their instrumentation with Enabled(): disabling turns
// every observation into one atomic load, which is what lets
// bench-metrics-overhead measure the cost of the instrumentation itself.
//
// Handles are cheap to look up (one RWMutex-guarded map read per call)
// and cheap to update (atomic adds); call sites on very hot loops may
// also cache the returned *Counter/*Gauge/*Histogram.
package telemetry

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

// Default is the process-wide registry every tsq layer reports into and
// tsqd's /metrics serves.
var Default = NewRegistry()

var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether instrumentation is on. Hot paths check it
// before building label strings.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns instrumentation on or off globally. Off, every
// guarded observation costs one atomic load — the baseline the overhead
// benchmark compares against.
func SetEnabled(on bool) { enabled.Store(on) }

// LatencyBuckets are the default histogram bounds for query and request
// durations, in seconds: 100µs .. 2.5s.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// RatioBuckets are the default bounds for dimensionless ratios — planner
// absolute relative cost error, fan-out imbalance.
var RatioBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing integer.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: cumulative counts per upper
// bound plus sum and count, matching the Prometheus histogram type.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// family is one named metric with its label-distinguished series.
type family struct {
	name    string
	kind    metricKind
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]any      // label key -> *Counter | *Gauge | *Histogram
	order  map[string][]string // label key -> flattened k,v pairs
}

// Registry holds metric families. All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		help:     make(map[string]string),
	}
}

// Describe attaches a HELP line to a metric name.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

func (r *Registry) family(name string, kind metricKind, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{
				name:    name,
				kind:    kind,
				buckets: buckets,
				series:  make(map[string]any),
				order:   make(map[string][]string),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

// labelKey canonicalizes flattened k,v pairs into a deterministic series
// key. Pairs must come in even length; an odd trailing key is dropped.
// This runs on every guarded observation, so it sorts small label sets
// on the stack and only escapes values that need it.
func labelKey(labels []string) string {
	n := len(labels) / 2
	if n == 0 {
		return ""
	}
	var buf [4]int
	var idx []int
	if n <= len(buf) {
		idx = buf[:n]
	} else {
		idx = make([]int, n)
	}
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort: label sets are tiny and call sites usually pass
	// them already ordered.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && labels[2*idx[j]] < labels[2*idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	size := 0
	for i := 0; i < n; i++ {
		size += len(labels[2*i]) + len(labels[2*i+1]) + 4
	}
	var b strings.Builder
	b.Grow(size)
	for i, j := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[2*j])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[2*j+1]))
		b.WriteByte('"')
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

func (f *family) get(labels []string, mk func() any) any {
	key := labelKey(labels)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = mk()
	f.series[key] = s
	f.order[key] = append([]string(nil), labels...)
	return s
}

// Counter returns (creating on first use) the counter series of name with
// the given flattened label k,v pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	f := r.family(name, counterKind, nil)
	return f.get(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (creating on first use) the gauge series of name.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	f := r.family(name, gaugeKind, nil)
	return f.get(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating on first use) the histogram series of name.
// buckets are the upper bounds, ascending; they are fixed by the first
// call for the whole family.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	f := r.family(name, histogramKind, buckets)
	return f.get(labels, func() any {
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Int64, len(f.buckets)+1)
		return h
	}).(*Histogram)
}

// Counter is Default.Counter.
func Count(name string, labels ...string) *Counter { return Default.Counter(name, labels...) }

// GaugeOf is Default.Gauge.
func GaugeOf(name string, labels ...string) *Gauge { return Default.Gauge(name, labels...) }

// HistogramOf is Default.Histogram.
func HistogramOf(name string, buckets []float64, labels ...string) *Histogram {
	return Default.Histogram(name, buckets, labels...)
}

// Describe is Default.Describe.
func Describe(name, help string) { Default.Describe(name, help) }

// Reset drops every series of the named family, keeping its type and
// help text. It exists for scrape-time families whose label sets are
// rebuilt per scrape (the worst-recent exemplar links): without it a departed label set would keep exporting its last
// value forever. Handles returned before a Reset keep working but no
// longer render; callers of such families must re-resolve per scrape.
func (r *Registry) Reset(name string) {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return
	}
	f.mu.Lock()
	f.series = make(map[string]any)
	f.order = make(map[string][]string)
	f.mu.Unlock()
}

// Reset is Default.Reset.
func Reset(name string) { Default.Reset(name) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format, families and series in deterministic sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		if h := help[f.name]; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, h)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			writeSeries(&b, f, key, f.series[key])
		}
		f.mu.RUnlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, f *family, key string, s any) {
	switch m := s.(type) {
	case *Counter:
		writeSample(b, f.name, key, strconv.FormatInt(m.Value(), 10))
	case *Gauge:
		writeSample(b, f.name, key, formatFloat(m.Value()))
	case *Histogram:
		cum := int64(0)
		for i, bound := range m.bounds {
			cum += m.counts[i].Load()
			writeSample(b, f.name+"_bucket", joinLabels(key, `le="`+formatFloat(bound)+`"`), strconv.FormatInt(cum, 10))
		}
		cum += m.counts[len(m.bounds)].Load()
		writeSample(b, f.name+"_bucket", joinLabels(key, `le="+Inf"`), strconv.FormatInt(cum, 10))
		writeSample(b, f.name+"_sum", key, formatFloat(m.Sum()))
		writeSample(b, f.name+"_count", key, strconv.FormatInt(m.Count(), 10))
	}
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}
