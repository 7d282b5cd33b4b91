package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {class, search}).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter (negative deltas are ignored: counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed log-scale bucket ladder shared by every
// histogram: powers of two from 1 to 2^48. Query cycle counts span six
// orders of magnitude between micro-queries and SF-1 scans, so a
// fixed-ratio (2x) ladder gives useful resolution everywhere without
// per-metric configuration.
var histBuckets = func() []float64 {
	out := make([]float64, 49)
	v := 1.0
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}()

// Histogram accumulates observations into the fixed log-scale buckets.
type Histogram struct {
	mu     sync.Mutex
	counts []int64 // one per bucket boundary, plus the +Inf overflow slot
	sum    float64
	total  int64
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]int64, len(histBuckets)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(histBuckets, v) // first bucket with le >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// metric kinds, matching Prometheus TYPE values.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one (metric, label set) time series.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   string
	series map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Safe for concurrent use; handle lookups take a lock,
// updates on the returned handles are lock-free (atomics) so hot paths
// should cache handles.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "\x00" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// lookup finds or creates the series for (name, labels), checking that the
// metric kind is consistent across call sites.
func (r *Registry) lookup(name, help, kind string, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and re-used as %s", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		ls := make([]Label, len(labels))
		copy(ls, labels)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
		s = &series{labels: ls}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = newHistogram()
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels).counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels).gauge
}

// Histogram returns the histogram for (name, labels), creating it on first
// use. All histograms share the fixed power-of-two bucket ladder.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels).hist
}

// CounterValue reads a counter without creating it (0 when absent) — a
// test and reconciliation helper.
func (r *Registry) CounterValue(name string, labels ...Label) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f, ok := r.families[name]
	var s *series
	if ok {
		s = f.series[labelKey(labels)]
	}
	r.mu.Unlock()
	if s == nil || s.counter == nil {
		return 0
	}
	return s.counter.Value()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a sample value without exponent noise for integral
// values (Prometheus accepts both; integers diff cleanly in tests).
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in text exposition format, sorted
// by metric name then label set for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot series lists under the lock; values are read via atomics /
	// the histogram's own lock afterwards.
	type famSnap struct {
		f    *family
		keys []string
	}
	snaps := make([]famSnap, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		snaps = append(snaps, famSnap{f: f, keys: keys})
	}
	r.mu.Unlock()

	for _, fs := range snaps {
		f := fs.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, k := range fs.keys {
			s := f.series[k]
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels), s.counter.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels), s.gauge.Value())
			case kindHistogram:
				err = writeHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.hist
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()

	var cum int64
	for i, b := range histBuckets {
		cum += counts[i]
		// Skip leading all-zero buckets to keep the exposition small; the
		// first non-empty bucket onward renders the full cumulative ladder.
		if cum == 0 && i < len(histBuckets)-1 && counts[i+1] == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, formatLabels(s.labels, L("le", formatFloat(b))), cum); err != nil {
			return err
		}
		if cum == total {
			break
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, formatLabels(s.labels, L("le", "+Inf")), total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, formatLabels(s.labels), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, formatLabels(s.labels), total)
	return err
}

// QueryStats is one executed query's run-level figures, as CountQuery
// records them.
type QueryStats struct {
	// Device labels the engine(s) that ran ("cape", "cpu", "cape+cpu").
	Device string
	// Shape is the executed CAPE plan shape ("" when the fact stage did not
	// run on CAPE).
	Shape             string
	Cycles            int64
	Seconds           float64
	BytesMoved        int64
	XferOverlapCycles int64
	PeakBatchBytes    int64
}

// CountQuery records one executed query's run-level metrics: the query
// and traffic counters by device, the plan-shape counter, the cycle and
// simulated-seconds histograms, and the streaming overlap and peak-batch
// series. A nil Telemetry records nothing.
func (t *Telemetry) CountQuery(q QueryStats) {
	if t == nil {
		return
	}
	reg := t.metrics
	reg.Counter(MetricQueries, "Queries executed.", L("device", q.Device)).Inc()
	reg.Counter(MetricBytesMoved, "Simulated DRAM bytes moved in both directions.",
		L("device", q.Device)).Add(q.BytesMoved)
	if q.Shape != "" {
		reg.Counter(MetricPlanShapes, "Executed physical plan shapes.", L("shape", q.Shape)).Inc()
	}
	reg.Histogram(MetricQueryCycles, "Simulated cycles per query.").Observe(float64(q.Cycles))
	reg.Histogram(MetricQuerySeconds, "Simulated seconds per query.").Observe(q.Seconds)
	if q.XferOverlapCycles > 0 {
		reg.Counter(MetricXferOverlapCycles,
			"Transfer cycles hidden under compute by double-buffered streaming.",
			L("device", q.Device)).Add(q.XferOverlapCycles)
	}
	if q.PeakBatchBytes > 0 {
		reg.Gauge(MetricPeakBatchBytes,
			"Peak bytes resident in streaming batches (last streamed query).").Set(q.PeakBatchBytes)
	}
}
