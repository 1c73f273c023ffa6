// Package obs is the observability layer of the runtime: a
// zero-dependency (stdlib-only) metrics registry with Prometheus
// text-format exposition and an expvar bridge, a structured decision
// tracer for the staged checking pipeline, and the live HTTP endpoints
// (/metrics, /healthz, pprof) the site daemon serves.
//
// The registry deliberately implements the small subset of the
// Prometheus data model the runtime needs — counters, gauges, and
// fixed-bucket histograms, each optionally labeled — so no external
// client library is required. A counter or gauge family is either live
// (a handle the caller bumps: single atomics) or collected (CounterFunc,
// GaugeFunc: a function that reads the values at scrape time from
// accounting the caller keeps anyway, so nothing is counted twice).
// Histograms take one short mutex-protected critical section per
// observation, and every layer that accepts a *Registry treats nil as
// "instrumentation off" and skips the hooks entirely.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type names, as exposed in the Prometheus TYPE comment.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefLatencyBuckets is the default latency histogram layout, in seconds:
// 100µs to 2.5s in a coarse exponential ladder, sized for wire round
// trips and update pipelines rather than sub-microsecond kernels.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric family: a type, a help string, a label
// schema, and the metrics keyed by their label values.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histograms only

	mu      sync.Mutex
	metrics map[string]any // label-signature -> *Counter | *Gauge | *Histogram
	// collectors emit the series of a family registered by CounterFunc
	// or GaugeFunc, which has no live metrics.
	collectors []func(Emit)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns the named family, creating it on first use, and adds
// collect to its collectors when it is not nil. A name reused with a
// different type or label schema, or by a live and a collected family,
// panics — that is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help, typ string, labels []string, buckets []float64, collect func(Emit)) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets, metrics: map[string]any{}}
		r.families[name] = f
	} else if f.typ != typ || strings.Join(f.labels, ",") != strings.Join(labels, ",") || (len(f.collectors) > 0) != (collect != nil) {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s%v (was %s%v)", name, typ, labels, f.typ, f.labels))
	}
	if collect != nil {
		f.mu.Lock()
		f.collectors = append(f.collectors, collect)
		f.mu.Unlock()
	}
	return f
}

// with returns the family's metric for the given label values, creating
// it with mk on first use.
func (f *family) with(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.metrics[key]
	if !ok {
		m = mk()
		f.metrics[key] = m
	}
	return m
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error; they are not
// checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution: observations are counted
// into the first bucket whose upper bound is >= the value, with an
// implicit +Inf overflow bucket, plus a running sum and count.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is the +Inf overflow
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Snapshot returns cumulative per-bucket counts (aligned with Bounds,
// plus the +Inf bucket last), the sum and the total count.
func (h *Histogram) Snapshot() (cumulative []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return cumulative, h.sum, h.count
}

// Bounds returns the bucket upper bounds (exclusive of +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, typeCounter, nil, nil, nil)
	return f.with(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, typeGauge, nil, nil, nil)
	return f.with(nil, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// bucket upper bounds (ascending; nil means DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	f := r.lookup(name, help, typeHistogram, nil, buckets, nil)
	return f.with(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, typeCounter, labels, nil, nil)}
}

// With returns the counter for the given label values.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.f.with(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, typeGauge, labels, nil, nil)}
}

// With returns the gauge for the given label values.
func (gv *GaugeVec) With(values ...string) *Gauge {
	return gv.f.with(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family with
// the given bucket layout (nil means DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	return &HistogramVec{r.lookup(name, help, typeHistogram, labels, buckets, nil)}
}

// With returns the histogram for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	return hv.f.with(values, func() any { return newHistogram(hv.f.buckets) }).(*Histogram)
}

// Emit adds v to the series with the given label values, in the order of
// the family's labels. A label set emitted more than once in one scrape —
// by two collectors, or twice by one — is summed.
type Emit func(v int64, labels ...string)

// NonZero emits the non-zero counts of a one-label family, each under its
// key: a labelled series appears once something is counted under it.
func (emit Emit) NonZero(counts map[string]int64) {
	for k, n := range counts {
		if n != 0 {
			emit(n, k)
		}
	}
}

// CounterFunc registers (or adds to) a collected counter family: at each
// WritePrometheus and Snapshot, collect emits the family's series from
// the caller's own accounting, outside the registry's locks. Every call
// adds a collector, so several instances of one layer sharing a registry
// sum; collect must emit only values that never decrease.
func (r *Registry) CounterFunc(name, help string, collect func(Emit), labels ...string) {
	r.lookup(name, help, typeCounter, labels, nil, collect)
}

// GaugeFunc is CounterFunc for a gauge family.
func (r *Registry) GaugeFunc(name, help string, collect func(Emit), labels ...string) {
	r.lookup(name, help, typeGauge, labels, nil, collect)
}

// GaugeFuncOnce registers an unlabeled collected gauge of a value of the
// whole process, not of one instance: when the family exists already it
// does nothing, so instances sharing a registry do not add it twice.
func (r *Registry) GaugeFuncOnce(name, help string, collect func(Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; !ok {
		r.families[name] = &family{name: name, help: help, typ: typeGauge, metrics: map[string]any{}, collectors: []func(Emit){collect}}
	}
}

// WritePrometheus renders every family in the Prometheus text exposition
// format, families and series sorted by name so the output is stable.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		fams[n] = f
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		fams[n].write(w)
	}
}

// sample is one series of a family: its label values and its metric — a
// *Counter, *Gauge or *Histogram, or the int64 its collectors emitted.
type sample struct {
	values []string
	m      any
}

// series returns the family's series sorted by label signature. A
// collected family's collectors run here, with no lock held.
func (f *family) series() []sample {
	metrics := map[string]any{}
	f.mu.Lock()
	maps.Copy(metrics, f.metrics)
	collectors := f.collectors
	f.mu.Unlock()
	emit := func(v int64, values ...string) {
		if len(values) != len(f.labels) {
			panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
		}
		k := strings.Join(values, "\x00")
		sum, _ := metrics[k].(int64)
		metrics[k] = sum + v
	}
	for _, c := range collectors {
		c(emit)
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]sample, 0, len(keys))
	for _, k := range keys {
		var values []string
		if k != "" || len(f.labels) > 0 {
			values = strings.Split(k, "\x00")
		}
		out = append(out, sample{values, metrics[k]})
	}
	return out
}

// value returns a counter's or gauge's value, collected or live.
func value(m any) int64 {
	switch m := m.(type) {
	case *Counter:
		return m.Value()
	case *Gauge:
		return m.Value()
	}
	return m.(int64)
}

func (f *family) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	for _, s := range f.series() {
		if h, ok := s.m.(*Histogram); ok {
			cum, sum, count := h.Snapshot()
			for i, b := range h.Bounds() {
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "le", formatFloat(b)), cum[i])
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "le", "+Inf"), cum[len(cum)-1])
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.values, "", ""), formatFloat(sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.values, "", ""), count)
			continue
		}
		fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.values, "", ""), value(s.m))
	}
}

// labelString renders {k="v",...}, appending the extra pair (used for
// le) when extraKey is non-empty; no labels renders as the empty string.
func labelString(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(v))
		sb.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraKey)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraVal))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler returns an http.Handler serving the Prometheus exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Snapshot renders the registry as a plain map: one entry per series
// ("name" or "name{k=v,...}"), counters and gauges as their integer
// value, histograms as {count, sum, buckets{le: cumulative}}. It is the
// expvar bridge's payload and a convenient test hook.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		for _, s := range f.series() {
			key := f.name + labelString(f.labels, s.values, "", "")
			h, ok := s.m.(*Histogram)
			if !ok {
				out[key] = value(s.m)
				continue
			}
			cum, sum, count := h.Snapshot()
			buckets := map[string]uint64{}
			for i, b := range h.Bounds() {
				buckets[formatFloat(b)] = cum[i]
			}
			buckets["+Inf"] = cum[len(cum)-1]
			out[key] = map[string]any{"count": count, "sum": sum, "buckets": buckets}
		}
	}
	return out
}

// PublishExpvar exposes the registry under the given expvar name (shown
// at /debug/vars). Publishing the same name twice is a no-op — expvar
// itself panics on duplicates, and restart-style re-wiring should not.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
