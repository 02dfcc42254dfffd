package core

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/simnet"
	"tax/internal/telemetry"
	"tax/internal/tower"
)

// TestThreeHopItineraryTrace is the telemetry acceptance scenario: an
// agent launched on h1 with the itinerary h2, h3 must leave ONE connected
// span tree behind — a single trace id, a single root, every other span
// reachable through parent links — covering the hops, the firewall
// mediations and the VM executions of all three hosts.
func TestThreeHopItineraryTrace(t *testing.T) {
	s, err := NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	twr := s.EnableTower()
	for _, h := range []string{"h1", "h2", "h3"} {
		if _, err := s.AddNode(h, NodeOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var visited []string
	finished := make(chan struct{})
	s.DeployProgram("tourist", func(ctx *agent.Context) error {
		mu.Lock()
		visited = append(visited, ctx.Host())
		mu.Unlock()
		hosts, err := ctx.Briefcase().Folder(briefcase.FolderHosts)
		if err != nil {
			close(finished)
			return err
		}
		next, ok := hosts.Pop()
		if !ok {
			close(finished)
			return nil
		}
		if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
			return err
		}
		close(finished)
		return errors.New("hop failed")
	})

	bc := briefcase.New()
	bc.Ensure(briefcase.FolderHosts).AppendString(
		"tacoma://h2//vm_go",
		"tacoma://h3//vm_go",
	)
	trace := agent.StampTrace(bc, "h1")
	if trace == "" || !strings.HasPrefix(trace, "t:h1:") {
		t.Fatalf("StampTrace = %q", trace)
	}

	n1, _ := s.Node("h1")
	if _, err := n1.VM.Launch("system", "tourist", "tourist", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("itinerary never completed")
	}
	mu.Lock()
	got := strings.Join(visited, ",")
	mu.Unlock()
	if got != "h1,h2,h3" {
		t.Fatalf("visited %s", got)
	}
	// A host records its spans on its own goroutines, and a moved agent's
	// vm.exec and agent.go end only once its hop has returned — after
	// the next host may have run the rest of the tour. Give every span
	// the checks below read a moment to be committed.
	for _, want := range [][2]string{
		{"vm.exec", "h1"}, {"vm.exec", "h2"}, {"vm.exec", "h3"},
		{"agent.go", "h1"}, {"agent.go", "h2"},
		{"fw.send", "h1"}, {"fw.send", "h2"},
		{"net.transfer", "h1"}, {"net.transfer", "h2"},
		{"fw.inbound", "h2"}, {"fw.inbound", "h3"},
	} {
		waitForSpan(t, twr, trace, want[0], want[1])
	}

	spans := traceSpans(twr, trace)
	if len(spans) < 6 {
		t.Fatalf("trace has %d spans, want >= 6:\n%s", len(spans), spanDump(spans))
	}

	// Single trace id (ForTrace guarantees it), single root, and every
	// non-root span's parent is present: the tree is connected.
	byID := make(map[string]telemetry.SpanRecord, len(spans))
	for _, sp := range spans {
		if sp.TraceID != trace {
			t.Fatalf("span %s has trace %q", sp.SpanID, sp.TraceID)
		}
		byID[sp.SpanID] = sp
	}
	var roots []telemetry.SpanRecord
	for _, sp := range spans {
		if sp.Parent == "" {
			roots = append(roots, sp)
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %s (%s) has dangling parent %s", sp.SpanID, sp.Name, sp.Parent)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("trace has %d roots, want 1:\n%s", len(roots), spanDump(spans))
	}
	if roots[0].Name != "vm.exec" || roots[0].Host != "h1" {
		t.Errorf("root is %s@%s, want vm.exec@h1", roots[0].Name, roots[0].Host)
	}

	// Coverage: the tree spans all three layers the issue names — agent
	// hops, firewall mediations, and VM executions on every host.
	type nh struct{ name, host string }
	have := make(map[nh]bool, len(spans))
	for _, sp := range spans {
		have[nh{sp.Name, sp.Host}] = true
	}
	for _, want := range []nh{
		{"vm.exec", "h1"}, {"vm.exec", "h2"}, {"vm.exec", "h3"},
		{"agent.go", "h1"}, {"agent.go", "h2"},
		{"fw.send", "h1"}, {"fw.send", "h2"},
		{"net.transfer", "h1"}, {"net.transfer", "h2"},
		{"fw.inbound", "h2"}, {"fw.inbound", "h3"},
	} {
		if !have[want] {
			t.Errorf("trace lacks %s on %s:\n%s", want.name, want.host, spanDump(spans))
		}
	}

	// Timestamps: within each host, virtual time is monotone in recording
	// order, and no span ends before it starts. (Clocks are per-host, so
	// cross-host comparisons are out of scope.)
	lastStart := map[string]int64{}
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts (%v..%v)", sp.Name, sp.Start, sp.End)
		}
		if int64(sp.Start) < lastStart[sp.Host] {
			t.Errorf("span %s@%s starts before an earlier-recorded span on the same host",
				sp.Name, sp.Host)
		}
		if int64(sp.Start) > lastStart[sp.Host] {
			lastStart[sp.Host] = int64(sp.Start)
		}
	}

	// Parent/child nesting: each hop span is a child of the vm.exec span
	// of the host it left, and the destination's vm.exec descends from the
	// hop that carried the agent there.
	hop1 := findSpan(spans, "agent.go", "h1")
	exec1 := findSpan(spans, "vm.exec", "h1")
	exec2 := findSpan(spans, "vm.exec", "h2")
	if hop1.Parent != exec1.SpanID {
		t.Errorf("h1 hop parent = %s, want h1 exec %s", hop1.Parent, exec1.SpanID)
	}
	if !hasAncestor(byID, exec2, hop1.SpanID) {
		t.Errorf("h2 exec does not descend from the h1 hop:\n%s", spanDump(spans))
	}
}

// TestUntracedItineraryRecordsNoSpans: the same journey without a trace
// stamp must leave the span store untouched (spans are strictly opt-in
// per briefcase).
func TestUntracedItineraryRecordsNoSpans(t *testing.T) {
	s, err := NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	twr := s.EnableTower()
	for _, h := range []string{"h1", "h2"} {
		if _, err := s.AddNode(h, NodeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	finished := make(chan struct{})
	s.DeployProgram("tourist", func(ctx *agent.Context) error {
		hosts, _ := ctx.Briefcase().Folder(briefcase.FolderHosts)
		next, ok := hosts.Pop()
		if !ok {
			close(finished)
			return nil
		}
		if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
			return err
		}
		close(finished)
		return errors.New("hop failed")
	})
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderHosts).AppendString("tacoma://h2//vm_go")
	n1, _ := s.Node("h1")
	if _, err := n1.VM.Launch("system", "tourist", "tourist", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("itinerary never completed")
	}
	time.Sleep(50 * time.Millisecond) // let the final exec goroutine wind down
	if n := len(twr.Spans()); n != 0 {
		t.Errorf("untraced run recorded %d spans", n)
	}
	// Counters still work: the registry is always on.
	n2, _ := s.Node("h2")
	if n2.Telemetry().Registry().Counter("fw.delivered", "host", "h2").Value() == 0 {
		t.Error("untraced run recorded no deliveries")
	}
}

// waitForSpan polls until a span with the given name and host appears in
// the trace (the recording goroutine may outlive the agent function).
func waitForSpan(t *testing.T, twr *tower.Collector, trace, name, host string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		for _, sp := range traceSpans(twr, trace) {
			if sp.Name == name && sp.Host == host {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("span %s@%s never recorded:\n%s", name, host, spanDump(traceSpans(twr, trace)))
}

// traceSpans returns the trace's spans in the order the tower took them.
func traceSpans(twr *tower.Collector, trace string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, sp := range twr.Spans() {
		if sp.TraceID == trace {
			out = append(out, sp)
		}
	}
	return out
}

func findSpan(spans []telemetry.SpanRecord, name, host string) telemetry.SpanRecord {
	for _, sp := range spans {
		if sp.Name == name && sp.Host == host {
			return sp
		}
	}
	return telemetry.SpanRecord{}
}

// hasAncestor walks sp's parent chain looking for ancestorID.
func hasAncestor(byID map[string]telemetry.SpanRecord, sp telemetry.SpanRecord, ancestorID string) bool {
	for sp.Parent != "" {
		if sp.Parent == ancestorID {
			return true
		}
		next, ok := byID[sp.Parent]
		if !ok {
			return false
		}
		sp = next
	}
	return false
}

// spanDump renders spans one per line for failure messages.
func spanDump(spans []telemetry.SpanRecord) string {
	sorted := append([]telemetry.SpanRecord(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Host != sorted[j].Host {
			return sorted[i].Host < sorted[j].Host
		}
		return sorted[i].Start < sorted[j].Start
	})
	var sb strings.Builder
	for _, sp := range sorted {
		sb.WriteString(sp.Host)
		sb.WriteString("  ")
		sb.WriteString(sp.Name)
		sb.WriteString("  ")
		sb.WriteString(sp.SpanID)
		sb.WriteString(" <- ")
		sb.WriteString(sp.Parent)
		sb.WriteString("\n")
	}
	return sb.String()
}
