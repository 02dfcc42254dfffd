package main

import (
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"time"

	"tax/internal/firewall"
)

// A workload is one named input set driven through the repo's public
// functions. All five are closed-loop: the next op is issued only when
// the previous one (or, for relay_stream, the window) allows it.
type workload interface {
	// sliceOps is the fixed op count of one slice (rule 2): committed
	// per workload, sized to about a seventh of a second at HEAD.
	sliceOps() int
	// setup boots the topology and generates every input from the
	// seed. tr is nil on the untraced pass.
	setup(seed int64, tr *tracer) error
	// run executes n ops and records each op's outcome.
	run(n int, rec *recorder) error
	// check is the whole-run correctness check.
	check() error
	// close tears the topology down and waits for it.
	close()
}

// recorder collects per-op outcomes. An op that errors, times out or
// fails its correctness check is failed and excluded from latency.
type recorder struct {
	lat       []time.Duration
	attempted int
	failed    int
	firstErr  error
}

func (r *recorder) ok(d time.Duration) {
	r.attempted++
	r.lat = append(r.lat, d)
}

func (r *recorder) fail(err error) {
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// wantZero is the whole-run check the messaging workloads share: the
// named counters of a firewall's registry must not have moved.
func wantZero(fw *firewall.Firewall, counters ...string) error {
	reg := fw.Telemetry().Registry()
	for _, c := range counters {
		if v := reg.Counter(c, "host", fw.HostName()).Value(); v != 0 {
			return fmt.Errorf("%s on %s = %d, want 0", c, fw.HostName(), v)
		}
	}
	return nil
}

const (
	// warmupSlices is rule 5's warm-up, part of setup_s: about a second
	// at HEAD, which is what makes a set-up long enough to repeat.
	warmupSlices = 7
	// maxSlices bounds the sample buffers, which are allocated before
	// the measured phase so that recording an op allocates nothing:
	// enough for the longest run the pipeline may ask for (60 s) at HEAD.
	maxSlices = 512
	// setupRepeats is how many times a run boots and warms the
	// workload; setup_s is the median, which two disturbed set-ups of
	// the five do not move.
	setupRepeats = 5
)

// measured is what one measured phase yields.
type measured struct {
	rec        recorder
	sliceRates []float64 // successful ops per second, one per slice
	sliceEnds  []int     // len(rec.lat) after each slice
	p50s       []float64 // sliceP50s, once computed
	elapsed    time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpuUS      int64
}

// measure runs equal-count slices (rule 2: fixed work per slice) until
// enough says so. between, when set, runs after every slice outside its
// timing.
func measure(w workload, enough func(slices int, elapsed time.Duration) bool, between func()) (*measured, error) {
	n := w.sliceOps()
	m := &measured{
		rec:        recorder{lat: offHeap[time.Duration](n * maxSlices)},
		sliceRates: make([]float64, 0, maxSlices),
		sliceEnds:  make([]int, 0, maxSlices),
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for s := 0; s < maxSlices; s++ {
		done0 := m.rec.attempted - m.rec.failed
		t0 := time.Now()
		if err := w.run(n, &m.rec); err != nil {
			return nil, err
		}
		t1 := time.Now()
		m.sliceRates = append(m.sliceRates, float64(m.rec.attempted-m.rec.failed-done0)/t1.Sub(t0).Seconds())
		m.sliceEnds = append(m.sliceEnds, len(m.rec.lat))
		if between != nil {
			between()
		}
		if enough(s+1, time.Since(start)) {
			break
		}
	}
	m.elapsed = time.Since(start)
	m.cpuUS = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return m, nil
}

// forDuration ends the measured phase once d has elapsed: the contract
// fixes the time, so the slice count floats.
func forDuration(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed >= d }
}

// forSlices ends it after exactly n slices.
func forSlices(n int) func(int, time.Duration) bool {
	return func(slices int, _ time.Duration) bool { return slices >= n }
}

// bootAndWarm is one set-up (rule 5): topology boot, input generation
// and the warm-up slices. It returns how long that took.
func bootAndWarm(w workload, seed int64, tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	if err := w.setup(seed, tr); err != nil {
		return 0, err
	}
	warm := recorder{lat: make([]time.Duration, 0, warmupSlices*w.sliceOps())}
	for s := 0; s < warmupSlices; s++ {
		if err := w.run(w.sliceOps(), &warm); err != nil {
			return 0, err
		}
	}
	if warm.failed > 0 {
		return 0, fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	return time.Since(t0), nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metrics is a name → value map that refuses names outside the
// grammar and duplicate names.
type metrics map[string]metric

func (ms metrics) put(name string, v float64, unit string) {
	if !metricName.MatchString(name) {
		panic("taxperf: bad metric name " + name)
	}
	if _, dup := ms[name]; dup {
		panic("taxperf: duplicate metric " + name)
	}
	ms[name] = metric{Value: v, Unit: unit}
}

func (ms metrics) names() []string {
	out := make([]string, 0, len(ms))
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Rule 3: a run's throughput and latency are read off its quiet slices.
// Noise on a shared sandbox is one-sided — a neighbour only ever slows a
// slice — and comes in periods of seconds, long enough to take a median
// over slices with them; so the slices that matter are the undisturbed
// ones. A decile finds them without trusting the single best slice, and
// a code change moves every slice, so it moves the decile as much as it
// moves the median.

// quietRate is the upper decile of the slice rates.
func quietRate(sliceRates []float64) float64 { return quantile(sliceRates, 0.9) }

// quietLatency is the lower decile of the slices' median latencies.
func quietLatency(sliceP50s []float64) float64 { return quantile(sliceP50s, 0.1) }

// sliceP50s returns each slice's median per-op latency in microseconds.
// It sorts the samples of each slice in place, once.
func (m *measured) sliceP50s() []float64 {
	if m.p50s != nil {
		return m.p50s
	}
	out := make([]float64, 0, len(m.sliceEnds))
	start := 0
	for _, end := range m.sliceEnds {
		if end > start {
			out = append(out, float64(quantileDur(m.rec.lat[start:end], 0.5))/1e3)
		}
		start = end
	}
	m.p50s = out
	return out
}

// endToEnd turns one measured phase into the five gated metrics.
func endToEnd(m *measured, setups []time.Duration) metrics {
	ok := float64(m.rec.attempted - m.rec.failed)
	values := map[string]float64{
		"setup_s":            medianDur(setups).Seconds(),
		"ops_per_s":          quietRate(m.sliceRates),
		"op_p50_us":          quietLatency(m.sliceP50s()),
		"allocs_per_op":      float64(m.mallocs) / ok,
		"alloc_bytes_per_op": float64(m.allocBytes) / ok,
	}
	out := metrics{}
	for _, g := range endToEndMetrics {
		out.put(g.name, values[g.name], g.unit)
	}
	return out
}

// quantile returns the q-quantile of xs, interpolating between the two
// nearest ranks. It does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// quantileDur returns the q-quantile by nearest rank. It sorts ds.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q * float64(len(ds)))
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}
