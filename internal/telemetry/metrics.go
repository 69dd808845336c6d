package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Label is one metric dimension (e.g. federation="alpha",
// worker="host-1234"). Labels are resolved once, at instrument
// registration; the hot path never formats or hashes them.
type Label struct {
	Key, Value string
}

// Registry holds the process's metric instruments and renders them in
// Prometheus text exposition format. Registration (Counter, Gauge,
// Histogram, GaugeFunc) takes a lock and may allocate; the returned
// instruments are updated with single atomic operations. A nil *Registry
// hands out nil instruments, whose methods no-op, so callers thread one
// optional registry through without conditionals.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// family groups the series of one metric name.
type family struct {
	name, help, typ string
	series          map[string]any // rendered label set → instrument
	keys            []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// instrument resolves (or creates) the series for name+labels, enforcing
// one metric type per name. Instrument identity is (name, label set):
// re-registering returns the existing instrument, so co-hosted federations
// and repeated runs share series instead of clobbering them.
func (r *Registry) instrument(name, help, typ string, labels []Label, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, series: make(map[string]any)}
		r.families[name] = fam
		r.names = append(r.names, name)
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, fam.typ, typ))
	}
	key := renderLabels(labels)
	if inst, ok := fam.series[key]; ok {
		return inst
	}
	inst := mk()
	fam.series[key] = inst
	fam.keys = append(fam.keys, key)
	return inst
}

// Counter returns the monotonically increasing counter for name+labels,
// registering it on first use. Nil receiver returns nil (a no-op counter).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.instrument(name, help, "counter", labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.instrument(name, help, "gauge", labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the latency histogram for name+labels, registering it
// on first use. Buckets are fixed and log-scaled (powers of two from 1µs
// to ~134s), so registration never allocates per-observation state and
// two histograms are always mergeable.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.instrument(name, help, "histogram", labels, func() any { return &Histogram{} }).(*Histogram)
}

// GaugeFunc registers a gauge whose value is sampled at scrape time —
// for occupancy readings owned elsewhere (e.g. the tensor worker pool).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	r.instrument(name, help, "gauge", labels, func() any { return gaugeFn(fn) })
}

type gaugeFn func() float64

// Counter is a monotonically increasing metric. The zero value is ready;
// a nil *Counter no-ops.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative; counters never decrease).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The zero value is ready; a nil
// *Gauge no-ops.
type Gauge struct{ v atomic.Int64 }

// set stores v.
func (g *Gauge) set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed log-scaled latency bucket count: upper bounds
// are 2^i microseconds for i = 0..histBuckets-1 (1µs … ~134s), plus the
// implicit +Inf bucket.
const histBuckets = 28

// Histogram is a fixed-bucket latency histogram. Observations are single
// atomic increments; the bucket layout never changes, so the hot path
// allocates nothing. The zero value is ready; a nil *Histogram no-ops.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64 // per-bucket counts; last is +Inf
	count   atomic.Int64
	sumNs   atomic.Int64
}

// observe records one duration.
func (h *Histogram) observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one duration given in nanoseconds.
func (h *Histogram) ObserveNanos(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	idx := histBuckets // +Inf
	for i := 0; i < histBuckets; i++ {
		if ns <= int64(1000)<<i {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// SumSeconds returns the sum of all observed durations in seconds.
func (h *Histogram) SumSeconds() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNs.Load()) * 1e-9
}

// renderLabels renders a sorted {k="v",…} series key ("" for no labels).
// Values are escaped per the Prometheus text format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
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

// withLabel splices an extra label (histograms' le) into a rendered series
// key.
func withLabel(key, extra string) string {
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

// bucketLE renders bucket i's upper bound (2^i microseconds) in seconds
// as an exact decimal string — powers of two of 10^-6 are not binary-float
// representable, so formatting through float64 would print rounding noise.
func bucketLE(i int) string {
	us := uint64(1) << uint(i)
	sec := us / 1_000_000
	frac := us % 1_000_000
	if frac == 0 {
		return strconv.FormatUint(sec, 10)
	}
	return strings.TrimRight(fmt.Sprintf("%d.%06d", sec, frac), "0")
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Output is deterministic: families
// sorted by name, series by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	for _, name := range names {
		fam := r.families[name]
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, fam.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam.typ); err != nil {
			return err
		}
		keys := append([]string(nil), fam.keys...)
		sort.Strings(keys)
		for _, key := range keys {
			if err := writeSeries(w, name, key, fam.series[key]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name, key string, inst any) error {
	switch v := inst.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, key, v.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, key, v.Value())
		return err
	case gaugeFn:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, key, strconv.FormatFloat(v(), 'g', -1, 64))
		return err
	case *Histogram:
		cum := int64(0)
		for i := 0; i <= histBuckets; i++ {
			cum += v.buckets[i].Load()
			le := "+Inf"
			if i < histBuckets {
				le = bucketLE(i)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(key, `le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, key, strconv.FormatFloat(v.SumSeconds(), 'g', -1, 64)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, key, v.Count())
		return err
	default:
		return fmt.Errorf("telemetry: unknown instrument type %T", inst)
	}
}
