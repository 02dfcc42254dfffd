package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// fakeWorkload runs ops of a scripted length and fails every nth.
type fakeWorkload struct {
	ops       int
	op        time.Duration
	failEvery int
}

func (f *fakeWorkload) sliceOps() int              { return f.ops }
func (f *fakeWorkload) setup(int64, *tracer) error { return nil }
func (f *fakeWorkload) check() error               { return nil }
func (f *fakeWorkload) close()                     {}
func (f *fakeWorkload) run(n int, r *recorder) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for time.Since(t0) < f.op {
		}
		if f.failEvery > 0 && (i+1)%f.failEvery == 0 {
			r.fail(errors.New("scripted failure"))
			continue
		}
		r.ok(time.Since(t0))
	}
	return nil
}

// A stalled slice costs one slice, not the run: on synthetic samples —
// twenty slices of 100 ops at 200 µs, one slice stalled tenfold — the
// quiet-slice rate and the median latency stay at the undisturbed
// values, where total ÷ elapsed loses a third.
func TestSliceStatisticsSurviveAStall(t *testing.T) {
	const slices, ops, op = 20, 100, 200 * time.Microsecond
	m := &measured{mallocs: 7 * slices * ops, allocBytes: 512 * slices * ops}
	for s := 0; s < slices; s++ {
		d := op
		if s == 3 {
			d *= 10
		}
		for i := 0; i < ops; i++ {
			m.rec.ok(d)
		}
		m.elapsed += ops * d
		m.sliceRates = append(m.sliceRates, 1/d.Seconds())
		m.sliceEnds = append(m.sliceEnds, len(m.rec.lat))
	}
	e2e := endToEnd(m, []time.Duration{time.Second, 3 * time.Second, 2 * time.Second})
	for name, want := range map[string]float64{
		"ops_per_s": 5000, "op_p50_us": 200, "setup_s": 2, "allocs_per_op": 7, "alloc_bytes_per_op": 512,
	} {
		if got := e2e[name].Value; got != want {
			t.Errorf("%s = %v with one stalled slice, want %v", name, got, want)
		}
	}
	if naive := float64(m.rec.attempted) / m.elapsed.Seconds(); naive > 3500 {
		t.Errorf("total ÷ elapsed = %.0f: the stall was not injected", naive)
	}
	if len(e2e) != len(endToEndMetrics) {
		t.Errorf("%d end-to-end metrics, want %d", len(e2e), len(endToEndMetrics))
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	ds := []time.Duration{40, 10, 30, 20}
	if got := quantileDur(ds, 0.5); got != 30 {
		t.Errorf("quantileDur p50 = %v, want 30 (nearest rank)", got)
	}
}

// A failed op counts as attempted and failed, is excluded from latency,
// and does not count towards the slice's rate or the per-op divisors.
func TestFailedOpAccounting(t *testing.T) {
	w := &fakeWorkload{ops: 10, op: 50 * time.Microsecond, failEvery: 5}
	m, err := measure(w, forSlices(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.rec.attempted != 30 || m.rec.failed != 6 || len(m.rec.lat) != 24 {
		t.Fatalf("attempted %d failed %d samples %d; want 30, 6, 24", m.rec.attempted, m.rec.failed, len(m.rec.lat))
	}
	if m.rec.firstErr == nil {
		t.Error("the first failure's error was not kept")
	}
	for i, r := range m.sliceRates {
		if r > 8/(10*w.op.Seconds())*1.01 {
			t.Errorf("slice %d rate %.0f counts failed ops", i, r)
		}
	}
	warm := &fakeWorkload{ops: 4, op: time.Microsecond, failEvery: 2}
	if _, err := bootAndWarm(warm, 1, nil); err == nil {
		t.Error("a failing warm-up did not fail the set-up")
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "has space", "ns/op", strings.Repeat("x", 65)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("put(%q) was accepted", bad)
				}
			}()
			metrics{}.put(bad, 1, "ns")
		}()
	}
	ms := metrics{}
	ms.put("ok.name_1-x", 1, "ns")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a duplicate metric was accepted")
			}
		}()
		ms.put("ok.name_1-x", 2, "ns")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an undeclared per-layer metric was accepted")
			}
		}()
		ms.layer("no.such_layer", 1)
	}()
}

// BENCHMARK.json is the contract other changes are judged by; the
// tables the runner prints from must say the same thing.
func TestBenchmarkJSONMatchesTheRunner(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var strict struct {
		Command    []string          `json:"command"`
		Paths      []string          `json:"paths"`
		RunSeconds int               `json:"run_seconds"`
		Workloads  []json.RawMessage `json:"workloads"`
		EndToEnd   []json.RawMessage `json:"end_to_end"`
		PerLayer   []json.RawMessage `json:"per_layer"`
	}
	if err := dec.Decode(&strict); err != nil {
		t.Fatalf("BENCHMARK.json has a key the contract does not: %v", err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, the runner has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || newWorkload(w.Name) == nil {
			t.Errorf("workload %d is %q, the runner's is %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, the runner prints %d", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range doc.EndToEnd {
		g := endToEndMetrics[i]
		if m.Name != g.name || m.Unit != g.unit || m.Better != g.better || m.Bound != g.bound {
			t.Errorf("end-to-end %d: declared %+v, the runner has %+v", i, m, g)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, the runner prints %d", len(doc.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range doc.PerLayer {
		l := perLayerMetrics[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer %d: declared %+v, the runner has %+v", i, m, l)
		}
		if !metricName.MatchString(l.name) || seen[l.name] {
			t.Errorf("per-layer name %q is malformed or repeated", l.name)
		}
		seen[l.name] = true
	}
	for name, rungs := range ladders {
		if newWorkload(name) == nil {
			t.Errorf("ladder for unknown workload %q", name)
		}
		for _, r := range rungs {
			if !seen[r.metric] {
				t.Errorf("ladder %s adds up %q, which is not a per-layer metric", name, r.metric)
			}
		}
	}
}

// Where sched_setaffinity is refused the runner must not exec, must say
// so, and must report pinned_cpu = -1.
func TestPinningIsSkippedWhereRefused(t *testing.T) {
	var two cpuMask
	two.set(0)
	two.set(5)
	execed := false
	refused := pinOps{
		get:  func() (cpuMask, error) { return two, nil },
		set:  func(cpuMask) error { return errors.New("operation not permitted") },
		exec: func([]string) error { execed = true; return nil },
	}
	var warn bytes.Buffer
	if cpu := pinSelf(refused, []string{"PATH=/bin"}, &warn); cpu != -1 {
		t.Errorf("pinned_cpu = %d where pinning is refused, want -1", cpu)
	}
	if execed {
		t.Error("re-exec'd although the affinity call was refused")
	}
	if !strings.Contains(warn.String(), "warning") || !strings.Contains(warn.String(), "operation not permitted") {
		t.Errorf("warning = %q, want one naming the refusal", warn.String())
	}

	// Granted: the highest allowed CPU, and an environment that cannot
	// override the runtime settings the harness fixes.
	var asked cpuMask
	var env []string
	granted := pinOps{
		get:  func() (cpuMask, error) { return two, nil },
		set:  func(m cpuMask) error { asked = m; return nil },
		exec: func(e []string) error { env = e; return errors.New("stop here") },
	}
	warn.Reset()
	pinSelf(granted, []string{"PATH=/bin", "GOMAXPROCS=8", "GOGC=off", "GOMEMLIMIT=1GiB"}, &warn)
	joined := strings.Join(env, " ")
	if !strings.Contains(joined, envPinned+"=5") || strings.Contains(joined, "GOMAXPROCS") ||
		strings.Contains(joined, "GOGC") || strings.Contains(joined, "GOMEMLIMIT") || !strings.Contains(joined, "PATH=/bin") {
		t.Errorf("re-exec environment = %q", joined)
	}
	if asked != two {
		t.Error("the allowed set was not restored after a failed exec")
	}
	if got, ok := parseMask(two.String()); !ok || got != two {
		t.Error("cpuMask does not round-trip through its string form")
	}

	// Already through the re-exec: no system call, the recorded CPU.
	if cpu := pinSelf(pinOps{}, []string{envPinned + "=3"}, &warn); cpu != 3 {
		t.Errorf("pinned_cpu = %d in the re-exec'd process, want 3", cpu)
	}
}

// Self time is a span's duration minus what its children cover, with
// overlapping children merged and children clipped to the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{layer: spanOp, start: 0, end: 100, parent: -1},
		{layer: spanSend, start: 10, end: 30, parent: 0},
		{layer: spanInbound, start: 20, end: 50, parent: 0},  // overlaps the send
		{layer: spanSend, start: 25, end: 45, parent: 2},     // nested in the inbound
		{layer: spanInbound, start: 90, end: 120, parent: 0}, // outlives the op
		{layer: spanFetch, start: 5, end: 0, parent: 0},      // never closed
	}
	st := selfTimes(spans)
	if got := st["op"]; got.Calls != 1 || got.SelfNS != 100-40-10 {
		t.Errorf("op self = %+v, want 50 (children cover [10,50) and [90,100))", got)
	}
	if got := st["firewall.inbound"]; got.Calls != 2 || got.SelfNS != (30-20)+30 {
		t.Errorf("inbound self = %+v, want 40", got)
	}
	if got := st["simnet.send"]; got.Calls != 2 || got.Total != 40 || got.SelfNS != 40 {
		t.Errorf("send = %+v, want two calls of 20", got)
	}
	if _, ok := st["websim.fetch"]; ok {
		t.Error("an unclosed span was counted")
	}
}
