package firewall

import (
	"strings"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/telemetry"
)

// telFixture is a fixture whose firewalls share one full-collection
// telemetry instance (spans + events on).
func telFixture(t *testing.T, hosts ...string) (*fixture, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(telemetry.Options{Host: "test", Spans: true, Events: true})
	f := newFixture(t)
	f.config = func(c *Config) { c.Telemetry = tel }
	for _, h := range hosts {
		f.addHost(h)
	}
	return f, tel
}

// eventTypes summarizes a log snapshot as "type:cause" strings for
// substring assertions.
func eventTypes(tel *telemetry.Telemetry) []string {
	var out []string
	for _, e := range tel.Events().Snapshot() {
		out = append(out, e.Type+":"+e.Cause)
	}
	return out
}

func hasEvent(events []string, typ, causeSub string) bool {
	for _, e := range events {
		if strings.HasPrefix(e, typ+":") && strings.Contains(e, causeSub) {
			return true
		}
	}
	return false
}

// TestStatsMirrorsRegistry pins the compatibility facade: Stats() must
// read the same numbers the registry holds under the fw.* keys.
func TestStatsMirrorsRegistry(t *testing.T) {
	f, tel := telFixture(t, "h1")
	fw := f.sites["h1"].fw
	src, _ := fw.Register("vm_go", "alice", "src")
	dst, _ := fw.Register("vm_go", "alice", "dst")

	send(t, f.sites["h1"].fw, src, "alice/dst", "one")
	send(t, f.sites["h1"].fw, src, "alice/dst", "two")
	recvBody(t, dst, time.Second)
	recvBody(t, dst, time.Second)
	// One parked message that will expire.
	send(t, fw, src, "alice/ghost", "lost")
	// Delivered reaches 3: the two payloads plus the expiry error report
	// the firewall delivers back to the sender's mailbox — which lands
	// after Expired is bumped, so wait for both.
	deadline := time.Now().Add(3 * time.Second)
	for st := fw.Stats(); (st.Delivered != 3 || st.Expired != 1) && time.Now().Before(deadline); st = fw.Stats() {
		time.Sleep(10 * time.Millisecond)
	}

	st := fw.Stats()
	if st.Delivered != 3 || st.Queued != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v", st)
	}
	reg := tel.Registry()
	checks := map[string]int64{
		"fw.delivered": st.Delivered,
		"fw.queued":    st.Queued,
		"fw.expired":   st.Expired,
		"fw.errors":    st.Errors,
	}
	for name, want := range checks {
		if got := reg.Counter(name, "host", "h1").Value(); got != want {
			t.Errorf("registry %s = %d, Stats view says %d", name, got, want)
		}
	}
}

// TestAuditEventsParkExpireDeliver checks that mediation decisions leave
// an audit trail: allow on delivery, park for an absent receiver, expire
// on queue timeout.
func TestAuditEventsParkExpireDeliver(t *testing.T) {
	f, tel := telFixture(t, "h1")
	fw := f.sites["h1"].fw
	src, _ := fw.Register("vm_go", "alice", "src")
	dst, _ := fw.Register("vm_go", "alice", "dst")

	send(t, fw, src, "alice/dst", "hello")
	recvBody(t, dst, time.Second)
	send(t, fw, src, "alice/nobody", "doomed")

	deadline := time.Now().Add(3 * time.Second)
	for fw.Stats().Expired == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	events := eventTypes(tel)
	if !hasEvent(events, telemetry.EventAllow, "") {
		t.Errorf("no allow event: %v", events)
	}
	if !hasEvent(events, telemetry.EventPark, "receiver not registered") {
		t.Errorf("no park event: %v", events)
	}
	if !hasEvent(events, telemetry.EventExpire, "queue timeout") {
		t.Errorf("no expire event: %v", events)
	}
	// The expire event names the parked target so the operator can see
	// who lost a message.
	for _, e := range tel.Events().Snapshot() {
		if e.Type == telemetry.EventExpire && !strings.Contains(e.Target, "nobody") {
			t.Errorf("expire event target = %q", e.Target)
		}
	}
}

// TestAuditEventMgmtDenied checks the deny trail for an unauthorized
// management op.
func TestAuditEventMgmtDenied(t *testing.T) {
	f, tel := telFixture(t, "h1")
	fw := f.sites["h1"].fw
	bob, _ := fw.Register("vm_go", "bob", "bob-agent") // bob: unknown principal
	reply := mgmtRequest(t, fw, bob, OpKill, "alice/x")
	if Kind(reply) != KindError {
		t.Fatal("unauthorized kill succeeded")
	}
	if !hasEvent(eventTypes(tel), telemetry.EventDeny, "mgmt kill") {
		t.Errorf("no deny event: %v", eventTypes(tel))
	}
}

// TestMgmtMetricsOp reads the registry through the management interface,
// the path taxctl metrics uses.
func TestMgmtMetricsOp(t *testing.T) {
	f, _ := telFixture(t, "h1")
	fw := f.sites["h1"].fw
	admin := sysAgent(t, fw, "admin")
	dst, _ := fw.Register("vm_go", "alice", "dst")
	send(t, fw, admin, "alice/dst", "x")
	recvBody(t, dst, time.Second)

	reply := mgmtRequest(t, fw, admin, OpMetrics, "")
	rows, err := reply.Folder(FolderReply)
	if err != nil {
		t.Fatalf("no metrics rows: %v", err)
	}
	joined := strings.Join(rows.Strings(), "\n")
	if !strings.Contains(joined, "counter|fw.delivered{host=h1}|1") {
		t.Errorf("metrics rows lack the delivered counter:\n%s", joined)
	}
	// The mediation histograms exist because detailed telemetry is on.
	if !strings.Contains(joined, "histogram|fw.send{host=h1}|count=") {
		t.Errorf("metrics rows lack the send histogram:\n%s", joined)
	}
	// Rows arrive sorted for stable CLI output.
	got := rows.Strings()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("rows not sorted: %q then %q", got[i-1], got[i])
		}
	}
}

// TestMgmtTraceOp records a traced local round trip and reads the spans
// back through the management interface, the path taxctl trace uses.
func TestMgmtTraceOp(t *testing.T) {
	f, _ := telFixture(t, "h1")
	fw := f.sites["h1"].fw
	admin := sysAgent(t, fw, "admin")
	dst, _ := fw.Register("vm_go", "alice", "dst")

	trace := telemetry.NewTraceID("h1")
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "alice/dst")
	bc.SetString(briefcase.FolderSysTrace, trace)
	if err := fw.Send(admin.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Recv(time.Second); err != nil {
		t.Fatal(err)
	}

	reply := mgmtRequest(t, fw, admin, OpTrace, trace)
	rows, err := reply.Folder(FolderReply)
	if err != nil {
		t.Fatalf("no trace rows: %v", err)
	}
	joined := strings.Join(rows.Strings(), "\n")
	if !strings.Contains(joined, "fw.route") {
		t.Errorf("trace rows lack the mediation span:\n%s", joined)
	}
	for _, row := range rows.Strings() {
		if got := len(strings.Split(row, "|")); got != 7 {
			t.Errorf("trace row has %d fields, want 7: %q", got, row)
		}
	}

	// Untraced traffic must not pollute the trace.
	send(t, fw, admin, "alice/dst", "untraced")
	recvBody(t, dst, time.Second)
	reply = mgmtRequest(t, fw, admin, OpTrace, trace)
	rows2, _ := reply.Folder(FolderReply)
	if len(rows2.Strings()) != len(rows.Strings()) {
		t.Error("untraced send added spans to the trace")
	}
}

// TestMgmtTraceDisabled: without span collection the op reports a clear
// error instead of an empty tree.
func TestMgmtTraceDisabled(t *testing.T) {
	f := newFixture(t, "h1") // default counters-only telemetry
	fw := f.sites["h1"].fw
	admin := sysAgent(t, fw, "admin")
	reply := mgmtRequest(t, fw, admin, OpTrace, "t:h1:1")
	if Kind(reply) != KindError {
		t.Fatal("trace op succeeded without span collection")
	}
	msg, _ := reply.GetString(briefcase.FolderSysError)
	if !strings.Contains(msg, "span collection disabled") {
		t.Errorf("error = %q", msg)
	}
}

// TestMediationHistogramsCountEveryExit: with detailed telemetry on,
// fw.send and fw.inbound observe every mediation that entered, not only
// the ones that delivered — a refusal's latency is latency too. The
// exits that used to skip the histogram (remote deny and park, every
// pre-route error; duplicate, undecodable, unauthenticated, untargeted
// and misaddressed frames) are all driven here.
func TestMediationHistogramsCountEveryExit(t *testing.T) {
	s := newAuditSite(t)
	reg := s.tel.Registry()
	sends, inbounds := reg.Histogram("fw.send", "host", "h1"), reg.Histogram("fw.inbound", "host", "h1")
	sends0, inbounds0 := sends.Count(), inbounds.Count()

	dead := s.dav.GlobalURI()
	s.fw.Unregister(s.dav)
	for _, target := range []string{
		"alice/dst",             // delivered
		"bob/x",                 // denied locally
		"tacoma://h2/alice/dst", // forwarded
		"tacoma://h2/bob/x",     // denied before the forward
		"tacoma://h2/carol/x",   // parked before the forward
		"tacoma://h1:notaport/", // unparseable target
	} {
		_ = sendErr(s.fw, s.src, target, "x")
	}
	_ = s.fw.Send(s.src.GlobalURI(), briefcase.New()) // no target
	_ = s.fw.Send(dead, briefcase.New())              // dead registration
	if got := sends.Count() - sends0; got != 8 {
		t.Errorf("fw.send observed %d of 8 sends", got)
	}

	sends0 = sends.Count()
	noTarget := briefcase.New()
	noTarget.SetString("BODY", "x")
	for _, payload := range [][]byte{
		frame("alice", "tacoma://h1/alice/dst"), // delivered
		frame("alice", "tacoma://h1/carol/x"),   // parked
		frame("alice", "tacoma://h3/alice/dst"), // relayed
		frame("alice", "tacoma://h2/alice/dst"), // relay loop: dropped
		noTarget.Encode(),                       // no target
		[]byte("TAXB but not a briefcase"),      // undecodable
		frame("alice", "tacoma://h1/bob/x"),     // denied: one typed reply goes back
	} {
		s.fw.handleInbound("h2", payload)
	}
	if got := inbounds.Count() - inbounds0; got != 7 {
		t.Errorf("fw.inbound observed %d of 7 frames", got)
	}
	if got := sends.Count() - sends0; got != 1 {
		t.Errorf("fw.send observed %d sends during inbound mediation, want the 1 error reply", got)
	}
}
