package telemetry

import (
	"strings"
	"testing"
	"time"

	"tax/internal/vclock"
)

func TestKeyCanonicalization(t *testing.T) {
	if got := Key("fw.sent"); got != "fw.sent" {
		t.Fatalf("bare key: got %q", got)
	}
	a := Key("fw.sent", "host", "h1", "vm", "vm_go")
	b := Key("fw.sent", "vm", "vm_go", "host", "h1")
	if a != b {
		t.Fatalf("label order changed the key: %q vs %q", a, b)
	}
	if want := "fw.sent{host=h1,vm=vm_go}"; a != want {
		t.Fatalf("key = %q, want %q", a, want)
	}
}

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var tel *Telemetry
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if tel.Registry() != nil || tel.Spans() != nil || tel.Events() != nil || tel.Detailed() {
		t.Fatal("nil telemetry must disable everything")
	}
	// Nil span store and nil span: every operation is a no-op.
	var st *SpanStore
	sp := st.Start(vclock.NewVirtual(), "h", "t:1", "", "x")
	if sp != nil {
		t.Fatal("nil store must return the nil span")
	}
	sp.SetAttr("k", "v")
	sp.SetErr(nil)
	sp.End()
	var el *EventLog
	el.Append(Event{Type: EventDrop})
	if el.Total() != 0 || el.Snapshot() != nil {
		t.Fatal("nil event log must stay empty")
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("fw.sent", "host", "h1")
	c2 := r.Counter("fw.sent", "host", "h1")
	if c1 != c2 {
		t.Fatal("same key must resolve to the same counter")
	}
	c1.Add(2)
	if c2.Value() != 2 {
		t.Fatalf("value = %d, want 2", c2.Value())
	}
	if r.Counter("fw.sent", "host", "h2") == c1 {
		t.Fatal("different labels must resolve to a different counter")
	}
}

// TestHistogramBucketBoundaries pins the landing rule: an observation
// goes to the first bucket whose boundary it does not exceed; values
// past the last boundary land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []time.Duration{10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond}
	r := NewRegistry()
	h := r.HistogramWithBounds(bounds, "lat")

	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{10 * time.Microsecond, 0}, // boundary is inclusive
		{11 * time.Microsecond, 1},
		{100 * time.Microsecond, 1},
		{time.Millisecond, 2},
		{2 * time.Millisecond, 3}, // overflow
		{time.Hour, 3},            // deep overflow
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	want := make([]int64, len(bounds)+1)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i, w := range want {
		if got := h.bucket(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	var sum time.Duration
	for _, c := range cases {
		sum += c.d
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %v, want %v", h.Sum(), sum)
	}
	snap := h.snapshot()
	if len(snap.Counts) != len(bounds)+1 {
		t.Fatalf("snapshot has %d buckets, want %d", len(snap.Counts), len(bounds)+1)
	}
}

func TestEventLogWraparound(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Append(Event{Time: time.Duration(i), Type: EventAllow})
	}
	if l.Total() != 10 {
		t.Fatalf("total = %d, want 10", l.Total())
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d events, want 4", len(snap))
	}
	// Newest 4, oldest first: times 6,7,8,9.
	for i, e := range snap {
		if want := time.Duration(6 + i); e.Time != want {
			t.Fatalf("snapshot[%d].Time = %d, want %d", i, e.Time, want)
		}
	}
}

func TestSpanStoreWraparound(t *testing.T) {
	st := NewSpanStore(3)
	clock := vclock.NewVirtual()
	trace := NewTraceID("h1")
	for i := 0; i < 7; i++ {
		clock.Advance(time.Millisecond)
		sp := st.Start(clock, "h1", trace, "", "op")
		sp.End()
	}
	if st.Total() != 7 {
		t.Fatalf("total = %d, want 7", st.Total())
	}
	snap := st.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d spans, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Start < snap[i-1].Start {
			t.Fatal("snapshot must be oldest first")
		}
	}
	if got := st.ForTrace(trace); len(got) != 3 {
		t.Fatalf("ForTrace retained %d, want 3", len(got))
	}
	if got := st.ForTrace("t:none:0"); got != nil {
		t.Fatalf("ForTrace of unknown trace = %v, want nil", got)
	}
}

func TestSpanRecordsClockAndLinkage(t *testing.T) {
	st := NewSpanStore(0)
	clock := vclock.NewVirtual()
	clock.Advance(5 * time.Millisecond)
	trace := NewTraceID("h1")

	parent := st.Start(clock, "h1", trace, "", "outer")
	clock.Advance(time.Millisecond)
	child := st.Start(clock, "h1", trace, parent.ID(), "inner")
	clock.Advance(time.Millisecond)
	child.SetAttr("k", "v")
	child.End()
	clock.Advance(time.Millisecond)
	parent.End()

	spans := st.ForTrace(trace)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	in, out := spans[0], spans[1] // child ended first
	if in.Name != "inner" || out.Name != "outer" {
		t.Fatalf("order: %s, %s", in.Name, out.Name)
	}
	if in.Parent != out.SpanID {
		t.Fatalf("child parent = %q, want %q", in.Parent, out.SpanID)
	}
	if out.Start != 5*time.Millisecond || out.End != 8*time.Millisecond {
		t.Fatalf("outer interval %v..%v", out.Start, out.End)
	}
	if in.Start != 6*time.Millisecond || in.End != 7*time.Millisecond {
		t.Fatalf("inner interval %v..%v", in.Start, in.End)
	}
	if len(in.Attrs) != 2 || in.Attrs[0] != "k" || in.Attrs[1] != "v" {
		t.Fatalf("attrs = %v", in.Attrs)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID("h")
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, "t:h:") {
			t.Fatalf("trace id %q lacks prefix", id)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	tel := New(Options{Host: "h1", Spans: true, Events: true})
	tel.Registry().Counter("fw.delivered", "host", "h1").Add(3)
	tel.Registry().Gauge("agents").Set(2)
	tel.Registry().Histogram("fw.send").Observe(42 * time.Microsecond)
	tel.Events().Append(Event{Type: EventAllow, Target: "system/dst"})
	sp := tel.Spans().Start(vclock.NewVirtual(), "h1", NewTraceID("h1"), "", "x")
	sp.End()

	var sb strings.Builder
	if err := tel.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"fw.delivered{host=h1}": 3`, `"agents": 2`, `"fw.send"`,
		`"type": "allow"`, `"name": "x"`, `"host": "h1"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON snapshot missing %q:\n%s", want, out)
		}
	}
}
