package tower

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tax/internal/telemetry"
	"tax/internal/vclock"
)

func newHostTel(host string) (*telemetry.Telemetry, *vclock.Virtual) {
	return telemetry.New(telemetry.Options{
		Host: host, Spans: true, Events: true,
	}), vclock.NewVirtual()
}

// TestCollectorPush verifies spans arrive via the push sink as they end.
func TestCollectorPush(t *testing.T) {
	c := New(Options{})
	tel, clk := newHostTel("h1")
	c.Attach(tel)

	trace := telemetry.NewTraceID("h1")
	sp := tel.Spans().Start(clk, "h1", trace, "", "op.one")
	clk.Advance(5 * time.Millisecond)
	sp.End()

	if n, _ := c.Counts(); n != 1 {
		t.Fatalf("after push: %d spans, want 1", n)
	}
	got := c.Spans()
	if got[0].Name != "op.one" || got[0].Host != "h1" {
		t.Fatalf("merged span = %+v", got[0])
	}
}

// TestCollectorReattachKeepsBothInstances: a restarted host attaches a
// fresh Telemetry under the same label, whose span sequence starts at 1
// again; a span ended on each instance is two merged spans, not one.
func TestCollectorReattachKeepsBothInstances(t *testing.T) {
	c := New(Options{})
	trace := telemetry.NewTraceID("h1")
	for _, name := range []string{"before.restart", "after.restart"} {
		tel, clk := newHostTel("h1")
		c.Attach(tel)
		sp := tel.Spans().Start(clk, "h1", trace, "", name)
		clk.Advance(time.Millisecond)
		sp.End()
	}
	got := c.Spans()
	if len(got) != 2 || got[0].Name != "before.restart" || got[1].Name != "after.restart" {
		t.Fatalf("merged spans = %+v, want one per instance", got)
	}
}

// TestCollectorSurvivesWipe is the crash-semantics core: spans pushed
// before a host wipes its volatile rings stay in the merged view, and the
// timeline tags them with the crash instant.
func TestCollectorSurvivesWipe(t *testing.T) {
	c := New(Options{})
	tel, clk := newHostTel("h2")
	c.Attach(tel)

	trace := telemetry.NewTraceID("h2")
	sp := tel.Spans().Start(clk, "h2", trace, "", "doomed.work")
	clk.Advance(3 * time.Millisecond)
	sp.End()

	// Crash: volatile rings wiped, collector told.
	clk.Advance(1 * time.Millisecond)
	tel.WipeVolatile()
	c.Record(Entry{Time: clk.Now(), Host: "h2", Kind: KindCrash, Name: "crash"})

	if spans := tel.Spans().Snapshot(); len(spans) != 0 {
		t.Fatalf("host ring not wiped: %d spans", len(spans))
	}
	tl := c.Trace(trace)
	if tl.Spans != 1 {
		t.Fatalf("timeline lost the pre-crash span: %+v", tl)
	}
	var spanRow, crashRow bool
	for _, r := range tl.Rows {
		if r.Kind == "span" && strings.Contains(r.Detail, "lost-at=") {
			spanRow = true
		}
		if r.Kind == KindCrash {
			crashRow = true
		}
	}
	if !spanRow || !crashRow {
		t.Fatalf("want crash-tagged span row and crash row, got %+v", tl.Rows)
	}
}

// TestTraceMergesAcrossHosts checks the causal merge: spans and audit
// events from several hosts interleave into one ordered timeline.
func TestTraceMergesAcrossHosts(t *testing.T) {
	c := New(Options{})
	telA, clkA := newHostTel("home")
	telB, clkB := newHostTel("h1")
	c.Attach(telA)
	c.Attach(telB)

	trace := telemetry.NewTraceID("home")
	root := telA.Spans().Start(clkA, "home", trace, "", "agent.go")
	clkA.Advance(2 * time.Millisecond)

	clkB.AdvanceTo(2 * time.Millisecond)
	hop := telB.Spans().Start(clkB, "h1", trace, root.ID(), "fw.deliver")
	telB.Events().Append(telemetry.Event{
		Time: clkB.Now(), Type: telemetry.EventAllow,
		Target: "tax://h1/worker", Trace: trace, Span: hop.ID(),
	})
	clkB.Advance(4 * time.Millisecond)
	hop.End()
	clkA.AdvanceTo(7 * time.Millisecond)
	root.End()

	// A fault decision stamped with the trace, plus an unrelated one from
	// another trace that must not leak in.
	c.Record(Entry{Time: 2 * time.Millisecond, Host: "home→h1", Kind: KindFault,
		Name: "delay", Detail: "by=1ms", Trace: trace})
	c.Record(Entry{Time: 3 * time.Millisecond, Host: "x→y", Kind: KindAudit,
		Name: "deny", Trace: "t:other:0000000000000099"})

	tl := c.Trace(trace)
	if tl.Spans != 2 {
		t.Fatalf("spans = %d, want 2", tl.Spans)
	}
	kinds := make(map[string]int)
	for _, r := range tl.Rows {
		kinds[r.Kind]++
	}
	if kinds["span"] != 2 || kinds[KindAudit] != 1 || kinds[KindFault] != 1 {
		t.Fatalf("row kinds = %v", kinds)
	}
	for i := 1; i < len(tl.Rows); i++ {
		if tl.Rows[i].Time < tl.Rows[i-1].Time {
			t.Fatalf("rows out of order: %+v", tl.Rows)
		}
	}
	if tl.Elapsed != 7*time.Millisecond {
		t.Fatalf("elapsed = %v, want 7ms", tl.Elapsed)
	}
}

// TestExplainMasksIDs: rendered lines must not leak counter-minted ids,
// which differ across reruns.
func TestExplainMasksIDs(t *testing.T) {
	c := New(Options{})
	tel, clk := newHostTel("h1")
	c.Attach(tel)
	trace := telemetry.NewTraceID("h1")
	sp := tel.Spans().Start(clk, "h1", trace, "", "agent.meet")
	sp.SetAttr("msg", "m00000000000000ab")
	sp.SetAttr("peer", "s:h2:00000000000000cd")
	clk.Advance(time.Millisecond)
	sp.End()

	var buf bytes.Buffer
	if err := c.Explain(&buf, trace); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "m00000000000000ab") || strings.Contains(out, "s:h2:") {
		t.Fatalf("ids leaked into explain output:\n%s", out)
	}
	if !strings.Contains(out, "«id»") {
		t.Fatalf("expected masked ids in output:\n%s", out)
	}
	if !strings.Contains(out, "agent.meet") {
		t.Fatalf("span name missing:\n%s", out)
	}
}

func TestWriteMetricsPrometheus(t *testing.T) {
	c := New(Options{})
	tel, _ := newHostTel("h1")
	c.Attach(tel)
	tel.Registry().Counter("fw.send", "verdict", "ok").Add(3)
	tel.Registry().Histogram("fw.send.latency").Observe(15 * time.Microsecond)

	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`tax_fw_send{host="h1",verdict="ok"} 3`,
		`tax_fw_send_latency_bucket{host="h1",le="+Inf"} 1`,
		`tax_fw_send_latency_count{host="h1"} 1`,
		`tax_fw_send_latency_sum{host="h1"} 1.5e-05`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the 2e-05 bucket includes the 1e-05 one.
	if !strings.Contains(out, `le="2e-05"} 1`) {
		t.Errorf("cumulative bucket missing in:\n%s", out)
	}
}

func TestWriteOTLP(t *testing.T) {
	c := New(Options{})
	tel, clk := newHostTel("h1")
	c.Attach(tel)
	trace := telemetry.NewTraceID("h1")
	parent := tel.Spans().Start(clk, "h1", trace, "", "root")
	clk.Advance(time.Millisecond)
	child := tel.Spans().Start(clk, "h1", trace, parent.ID(), "child")
	child.SetErr(errFake("boom"))
	clk.Advance(time.Millisecond)
	child.End()
	parent.End()

	var buf bytes.Buffer
	if err := c.WriteOTLP(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"resourceSpans"`, `"host.name"`, `"name": "root"`, `"name": "child"`,
		`"parentSpanId"`, `"message": "boom"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in OTLP output", want)
		}
	}
	// Hashed ids must be fixed-width hex: 32 chars for traces, 16 for spans.
	if got := otlpTraceID(trace); len(got) != 32 {
		t.Errorf("traceId len = %d, want 32", len(got))
	}
	if got := otlpSpanID(parent.ID()); len(got) != 16 {
		t.Errorf("spanId len = %d, want 16", len(got))
	}
	// Same kernel id must hash to the same OTLP id.
	if otlpTraceID(trace) != otlpTraceID(trace) {
		t.Error("trace id hash not stable")
	}
}

// TestJournalBounded: the flight recorder is a ring, oldest entries fall
// out, Seq keeps counting.
func TestJournalBounded(t *testing.T) {
	c := New(Options{JournalCapacity: 4})
	for i := 0; i < 10; i++ {
		c.Record(Entry{Time: time.Duration(i), Host: "h", Kind: KindCabinet, Name: "wal_append"})
	}
	j := c.Journal()
	if len(j) != 4 {
		t.Fatalf("journal len = %d, want 4", len(j))
	}
	if j[0].Seq != 7 || j[3].Seq != 10 {
		t.Fatalf("journal window = [%d..%d], want [7..10]", j[0].Seq, j[3].Seq)
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }
