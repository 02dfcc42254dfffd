package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (the disabled-telemetry no-op), so callers can
// resolve counters once and use them unconditionally on hot paths.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depths, agent counts).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the fixed histogram boundaries used for every
// kernel latency histogram: roughly logarithmic from 10 µs to 10 s, wide
// enough for both the loopback hot path and WAN-class transfers. An
// observation lands in the first bucket whose boundary it does not exceed;
// values beyond the last boundary land in the overflow bucket.
var DefaultLatencyBuckets = []time.Duration{
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Observations are lock-free
// atomic adds; bucket boundaries are immutable after creation.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64   // nanoseconds
	count  atomic.Int64
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations (0 on nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// bucket returns the observation count of bucket i (the bucket after the
// last boundary is the overflow bucket).
func (h *Histogram) bucket(i int) int64 {
	if h == nil || i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i].Load()
}

// HistogramSnapshot is the JSON view of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket boundaries in nanoseconds.
	Bounds []time.Duration `json:"bounds"`
	// Counts holds one count per bucket plus the trailing overflow bucket.
	Counts []int64 `json:"counts"`
	// Count is the total number of observations.
	Count int64 `json:"count"`
	// Sum is the total observed time in nanoseconds.
	Sum time.Duration `json:"sum"`
	// P50, P95 and P99 are quantile estimates derived from the buckets
	// (linear interpolation inside the landing bucket; an observation in
	// the overflow bucket reports the last boundary). Zero when empty.
	P50 time.Duration `json:"p50,omitempty"`
	P95 time.Duration `json:"p95,omitempty"`
	P99 time.Duration `json:"p99,omitempty"`
}

// Quantile estimates the q-th quantile (q in (0, 1]) from the bucket
// counts. The estimate interpolates linearly between the landing bucket's
// boundaries; observations beyond the last boundary clamp to it, so the
// estimate never invents a value the buckets cannot support.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count <= 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c < target {
			cum += c
			continue
		}
		var lo time.Duration
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: unbounded above, clamp to the last boundary.
			return s.Bounds[len(s.Bounds)-1]
		}
		hi := s.Bounds[i]
		frac := float64(target-cum) / float64(c)
		return lo + time.Duration(float64(hi-lo)*frac)
	}
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return 0
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Registry is the metrics source of truth: counters, gauges and histograms
// keyed by name plus label pairs. Lookup takes a short RWMutex-guarded map
// access; callers on hot paths resolve their instruments once up front and
// then pay only an atomic add per update.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Key renders the canonical "name{k=v,...}" instrument key for a name and
// label pairs ("k1", "v1", "k2", "v2", ...). Labels are sorted by key, so
// the same set in any order names the same instrument.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteByte('=')
		sb.WriteString(p.v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter returns (creating if absent) the named counter. Returns nil on a
// nil registry, which yields a no-op counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := Key(name, labels...)
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[key]; ok {
		return c
	}
	c = &Counter{}
	r.counters[key] = c
	return c
}

// Gauge returns (creating if absent) the named gauge; nil on nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := Key(name, labels...)
	r.mu.RLock()
	g, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[key]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[key] = g
	return g
}

// Histogram returns (creating if absent) the named histogram with the
// default latency buckets; nil on nil registry.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.HistogramWithBounds(nil, name, labels...)
}

// HistogramWithBounds is Histogram with explicit bucket boundaries (used
// on first creation; an existing histogram keeps its original bounds).
func (r *Registry) HistogramWithBounds(bounds []time.Duration, name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := Key(name, labels...)
	r.mu.RLock()
	h, ok := r.hists[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[key]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[key] = h
	return h
}

// RegistrySnapshot is the JSON view of a registry.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot returns a point-in-time copy of every instrument.
func (r *Registry) Snapshot() RegistrySnapshot {
	if r == nil {
		return RegistrySnapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}
