// Package obs provides the daemon's hand-rolled observability primitives:
// lock-free counters and gauges, mutex-guarded histograms, and a Registry
// that renders them in the Prometheus text exposition format (version
// 0.0.4) for GET /metrics scrapes.
//
// There is deliberately no dependency on a metrics library: the whole
// surface is three atomic types and one renderer. The registry keeps its
// series in an ordered slice (the map is only a lookup index), so the
// exposition output is byte-for-byte deterministic — the same discipline
// the alsraclint determinism analyzer enforces on this package: no
// wall-clock reads (durations are observed by the caller and passed in)
// and no ordered results derived from map iteration.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters never go down).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into cumulative buckets, Prometheus
// style: bucket i counts observations ≤ Buckets[i], plus an implicit +Inf
// bucket, a sum and a total count.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64
	counts  []uint64 // len(bounds)+1; last is +Inf
	sum     float64
	samples uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed samples by
// linear interpolation within the bucket containing the target rank — the
// same estimate Prometheus's histogram_quantile computes server-side. The
// cluster coordinator uses Quantile(0.95) of the job-duration histogram to
// derive its hedge delay, so the estimate must be computable locally without
// a scrape round trip. Samples landing in the +Inf bucket clamp to the
// highest finite bound. Returns 0 when no samples have been observed.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.samples == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.samples)
	cum := uint64(0)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + c
		if float64(next) >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: no upper bound to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets is a default bucket layout for second-denominated
// latencies, from 1ms to 10s.
func LatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// series is one registered time series: a metric instance plus its identity
// (family name, help, type, label pairs).
type series struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// Registry holds registered series and renders them for scraping. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*series
	all   []*series // insertion-ordered; rendering sorts a copy
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*series{}}
}

// Counter registers (or returns the previously registered) counter with the
// given name and label pairs ("key", "value", ...).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, "counter", labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or returns the previously registered) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, "gauge", labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram registers (or returns the previously registered) histogram with
// the given bucket upper bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	s := r.lookup(name, help, "histogram", labels)
	if s.histogram == nil {
		bounds := append([]float64(nil), buckets...)
		s.histogram = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	return s.histogram
}

func (r *Registry) lookup(name, help, typ string, labels []string) *series {
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.typ != typ {
			panic(fmt.Sprintf("obs: %s already registered as %s, requested %s", key, s.typ, typ))
		}
		return s
	}
	s := &series{name: name, help: help, typ: typ, labels: append([]string(nil), labels...)}
	r.byKey[key] = s
	r.all = append(r.all, s)
	return s
}

// WritePrometheus renders every registered series in the text exposition
// format, families sorted by name and series sorted by label set, each
// family preceded by its # HELP and # TYPE header exactly once.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ordered := make([]*series, len(r.all))
	copy(ordered, r.all)
	r.mu.Unlock()
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].name != ordered[j].name {
			return ordered[i].name < ordered[j].name
		}
		return renderLabels(ordered[i].labels) < renderLabels(ordered[j].labels)
	})

	var b strings.Builder
	prevFamily := ""
	for _, s := range ordered {
		if s.name != prevFamily {
			fmt.Fprintf(&b, "# HELP %s %s\n", s.name, escapeHelp(s.help))
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.typ)
			prevFamily = s.name
		}
		switch s.typ {
		case "counter":
			fmt.Fprintf(&b, "%s%s %d\n", s.name, renderLabels(s.labels), s.counter.Value())
		case "gauge":
			fmt.Fprintf(&b, "%s%s %d\n", s.name, renderLabels(s.labels), s.gauge.Value())
		case "histogram":
			renderHistogram(&b, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func renderHistogram(b *strings.Builder, s *series) {
	h := s.histogram
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]uint64(nil), h.counts...)
	sum, samples := h.sum, h.samples
	h.mu.Unlock()

	withLE := func(le string) []string {
		lbl := make([]string, 0, len(s.labels)+2)
		lbl = append(lbl, s.labels...)
		return append(lbl, "le", le)
	}
	cum := uint64(0)
	for i, bound := range bounds {
		cum += counts[i]
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket%s %d\n", s.name, renderLabels(withLE(le)), cum)
	}
	cum += counts[len(bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", s.name, renderLabels(withLE("+Inf")), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", s.name, renderLabels(s.labels), strconv.FormatFloat(sum, 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", s.name, renderLabels(s.labels), samples)
}

// renderLabels renders alternating key/value pairs as {k="v",...}, or ""
// when there are none.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
