package firewall

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/policy"
	"tax/internal/telemetry"
	"tax/internal/vclock"
)

// policyFixture builds hosts whose firewalls run policy engines: one
// engine per host, parsed from rulesets[hostname] (hosts not in the map
// get no engine and mediate legacy-style). All engines share clk so
// quota tests control refill explicitly.
func policyFixture(t *testing.T, clk vclock.Clock, rulesets map[string]string, dq policy.Quota, hosts ...string) (*fixture, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(telemetry.Options{Host: "test", Spans: true, Events: true})
	f := newFixture(t)
	f.config = func(c *Config) {
		c.Telemetry = tel
		if text, ok := rulesets[c.HostName]; ok {
			c.Policy = policy.New(clk, policy.MustParse(text), dq)
		}
	}
	for _, h := range hosts {
		f.addHost(h)
	}
	return f, tel
}

// sendErr is send that returns the mediation error instead of failing.
func sendErr(fw *Firewall, from *Registration, target, body string) error {
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, target)
	bc.SetString("BODY", body)
	return fw.Send(from.GlobalURI(), bc)
}

// countEvents counts audit events of one type whose cause contains sub.
func countEvents(tel *telemetry.Telemetry, typ, sub string) int {
	n := 0
	for _, e := range tel.Events().Snapshot() {
		if e.Type == typ && strings.Contains(e.Cause, sub) {
			n++
		}
	}
	return n
}

func TestPolicyDenyLocalTyped(t *testing.T) {
	f, tel := policyFixture(t, vclock.NewVirtual(), map[string]string{
		"h1": "default deny\nok: allow alice send alice/**\n",
	}, policy.Quota{}, "h1")
	fw := f.sites["h1"].fw
	src, _ := fw.Register("vm_go", "alice", "src")
	dst, _ := fw.Register("vm_go", "alice", "dst")

	// The allow rule admits alice-to-alice traffic.
	if err := sendErr(fw, src, "alice/dst", "in-policy"); err != nil {
		t.Fatalf("allowed send failed: %v", err)
	}
	if got := recvBody(t, dst, time.Second); got != "in-policy" {
		t.Errorf("body = %q", got)
	}

	// A target outside the allowed principal space falls through to the
	// default and comes back typed, naming the deciding rule.
	err := sendErr(fw, src, "bob/anything", "refused")
	if !errors.Is(err, ErrPolicyDenied) {
		t.Fatalf("deny err = %v, want ErrPolicyDenied", err)
	}
	if !strings.Contains(err.Error(), "p1.default") {
		t.Errorf("deny error %q does not name the default rule", err)
	}
	if got := countEvents(tel, telemetry.EventDeny, "policy rule=p1.default"); got != 1 {
		t.Errorf("deny audit events = %d, want exactly 1", got)
	}
	if got := countEvents(tel, telemetry.EventAllow, "rule=p1.ok"); got != 1 {
		t.Errorf("allow audit events naming p1.ok = %d, want exactly 1", got)
	}
	if v := tel.Registry().Counter("fw.policy_deny", "host", "h1").Value(); v != 1 {
		t.Errorf("fw.policy_deny = %d", v)
	}
}

// TestPolicySystemExempt: the system principal is the TCB — mediation
// for it never consults the ruleset, so management and error envelopes
// keep flowing under a default-deny policy.
func TestPolicySystemExempt(t *testing.T) {
	f, _ := policyFixture(t, vclock.NewVirtual(), map[string]string{
		"h1": "default deny\n",
	}, policy.Quota{}, "h1")
	fw := f.sites["h1"].fw
	sys, _ := fw.Register("vm_go", "system", "sysagent")
	reply := mgmtRequest(t, fw, sys, OpList, "")
	if Kind(reply) == KindError {
		t.Fatalf("system mgmt op denied under default-deny: %v", reply)
	}
	// Non-system mgmt is still policy-checked.
	al, _ := fw.Register("vm_go", "alice", "alagent")
	err := sendErr(fw, al, FirewallName, "x")
	if !errors.Is(err, ErrPolicyDenied) {
		t.Fatalf("alice mgmt send = %v, want ErrPolicyDenied", err)
	}
}

// TestPolicyParkHeldUntilReload: a park verdict holds a message across
// the very registration flush that would deliver an ordinary park; only
// a reload that allows the flow releases it.
func TestPolicyParkHeldUntilReload(t *testing.T) {
	f, tel := policyFixture(t, vclock.NewVirtual(), map[string]string{
		"h1": "hold: park alice send **\n",
	}, policy.Quota{}, "h1")
	fw := f.sites["h1"].fw
	src, _ := fw.Register("vm_go", "alice", "src")

	if err := sendErr(fw, src, "alice/dst", "held"); err != nil {
		t.Fatalf("park verdict returned error: %v", err)
	}
	if fw.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", fw.Pending())
	}
	if got := countEvents(tel, telemetry.EventPark, "policy rule=p1.hold"); got != 1 {
		t.Errorf("park audit events = %d, want exactly 1", got)
	}

	// Registration does NOT flush a policy-held park.
	dst, _ := fw.Register("vm_go", "alice", "dst")
	if _, ok := dst.TryRecv(); ok {
		t.Fatal("policy-held message flushed by registration")
	}
	if fw.Pending() != 1 {
		t.Fatalf("Pending after register = %d, want 1", fw.Pending())
	}

	// A reload that allows the flow re-dispatches it.
	v, err := fw.ReloadPolicy("default deny\nok: allow alice send **\n")
	if err != nil || v != 2 {
		t.Fatalf("ReloadPolicy = (%d, %v)", v, err)
	}
	if got := recvBody(t, dst, time.Second); got != "held" {
		t.Errorf("released body = %q", got)
	}
	if fw.Pending() != 0 {
		t.Errorf("Pending after release = %d", fw.Pending())
	}
}

// TestPolicyReloadRejectedKeepsOld: a ruleset that fails validation
// changes nothing — same version, same verdicts — and the rejection is
// audited.
func TestPolicyReloadRejectedKeepsOld(t *testing.T) {
	f, tel := policyFixture(t, vclock.NewVirtual(), map[string]string{
		"h1": "default deny\nok: allow alice send **\n",
	}, policy.Quota{}, "h1")
	fw := f.sites["h1"].fw
	src, _ := fw.Register("vm_go", "alice", "src")
	dst, _ := fw.Register("vm_go", "alice", "dst")

	if _, err := fw.ReloadPolicy("default deny\nallow broken\n"); err == nil {
		t.Fatal("invalid reload accepted")
	}
	if got := fw.Policy().Version(); got != 1 {
		t.Errorf("version after failed reload = %d, want 1", got)
	}
	if err := sendErr(fw, src, "alice/dst", "still works"); err != nil {
		t.Fatalf("send after failed reload: %v", err)
	}
	if got := recvBody(t, dst, time.Second); got != "still works" {
		t.Errorf("body = %q", got)
	}
	if got := countEvents(tel, telemetry.EventError, "policy reload rejected"); got != 1 {
		t.Errorf("reload-rejected audit events = %d, want 1", got)
	}
	if fw.Policy() == nil {
		t.Fatal("Policy() accessor lost the engine")
	}
}

// TestPolicyReloadDeniesHeld: a held message whose new verdict is deny
// goes back to its sender as a typed error report, not into the void.
func TestPolicyReloadDeniesHeld(t *testing.T) {
	f, _ := policyFixture(t, vclock.NewVirtual(), map[string]string{
		"h1": "hold: park alice send alice/dst\nallow alice send **\n",
	}, policy.Quota{}, "h1")
	fw := f.sites["h1"].fw
	src, _ := fw.Register("vm_go", "alice", "src")

	if err := sendErr(fw, src, "alice/dst", "doomed"); err != nil {
		t.Fatal(err)
	}
	if fw.Pending() != 1 {
		t.Fatalf("Pending = %d", fw.Pending())
	}
	if _, err := fw.ReloadPolicy("default deny\n"); err != nil {
		t.Fatal(err)
	}
	report, err := src.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("no error report: %v", err)
	}
	if Kind(report) != KindError {
		t.Fatalf("kind = %q", Kind(report))
	}
	re, ok := RemoteErrorFrom(report)
	if !ok || !errors.Is(re, ErrPolicyDenied) {
		t.Errorf("report error = %v (ok=%v), want ErrPolicyDenied via _ERRCODE", re, ok)
	}
	if fw.Pending() != 0 {
		t.Errorf("Pending after deny release = %d", fw.Pending())
	}
}

// TestPolicyQuotaLocal: message-rate quotas refuse the excess send
// typed, audit it, debit nothing for the refusal, and refill on the
// virtual clock.
func TestPolicyQuotaLocal(t *testing.T) {
	clk := vclock.NewVirtual()
	f, tel := policyFixture(t, clk, map[string]string{
		"h1": "default allow\nlim: quota alice rate=2 burst=2\n",
	}, policy.Quota{}, "h1")
	fw := f.sites["h1"].fw
	src, _ := fw.Register("vm_go", "alice", "src")
	dst, _ := fw.Register("vm_go", "alice", "dst")

	for i := 0; i < 2; i++ {
		if err := sendErr(fw, src, "alice/dst", "ok"); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	err := sendErr(fw, src, "alice/dst", "over")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third send = %v, want ErrQuotaExceeded", err)
	}
	if !strings.Contains(err.Error(), "p1.lim") {
		t.Errorf("quota error %q does not name the quota line", err)
	}
	if got := countEvents(tel, telemetry.EventQuota, "quota rule=p1.lim"); got != 1 {
		t.Errorf("quota audit events = %d, want exactly 1", got)
	}
	if v := tel.Registry().Counter("fw.policy_quota", "host", "h1").Value(); v != 1 {
		t.Errorf("fw.policy_quota = %d", v)
	}
	// Refill half a token-second: one more message fits.
	clk.Advance(500 * time.Millisecond)
	if err := sendErr(fw, src, "alice/dst", "refilled"); err != nil {
		t.Fatalf("post-refill send: %v", err)
	}
	for i := 0; i < 3; i++ {
		recvBody(t, dst, time.Second)
	}
	if _, ok := dst.TryRecv(); ok {
		t.Error("refused message was delivered anyway")
	}
}

// TestPolicyByteQuotaRemote: remote forwards charge encoded frame bytes
// at the origin; an over-budget frame never reaches the wire.
func TestPolicyByteQuotaRemote(t *testing.T) {
	clk := vclock.NewVirtual()
	f, _ := policyFixture(t, clk, map[string]string{
		"h1": "default allow\nthin: quota alice rate=1000 bytes=1\n",
	}, policy.Quota{}, "h1", "h2")
	fw1 := f.sites["h1"].fw
	src, _ := fw1.Register("vm_go", "alice", "src")
	recv, _ := f.sites["h2"].fw.Register("vm_go", "alice", "receiver")

	// Any real frame is bigger than the 1-byte budget.
	err := sendErr(fw1, src, "tacoma://h2/alice/receiver", "fat")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("send = %v, want ErrQuotaExceeded", err)
	}
	if fw1.ctr.forwarded.Value() != 0 {
		t.Error("refused frame was forwarded")
	}
	if _, ok := recv.TryRecv(); ok {
		t.Error("refused frame delivered remotely")
	}
}

// TestPolicyRemoteDenyTypedAcrossHosts: the receiving host's deny
// travels back as a KindError envelope whose _ERRCODE reconstructs
// ErrPolicyDenied under errors.Is on the sender's side of the wire.
func TestPolicyRemoteDenyTypedAcrossHosts(t *testing.T) {
	f, tel := policyFixture(t, vclock.NewVirtual(), map[string]string{
		"h1": "default deny\nout: allow alice send **\n",
		"h2": "default deny\n",
	}, policy.Quota{}, "h1", "h2")
	fw1 := f.sites["h1"].fw
	src, _ := fw1.Register("vm_go", "alice", "src")
	f.sites["h2"].fw.Register("vm_go", "alice", "receiver")

	// h1 allows the forward; h2 re-mediates on arrival and denies.
	if err := sendErr(fw1, src, "tacoma://h2/alice/receiver", "rejected there"); err != nil {
		t.Fatalf("origin-side send failed: %v", err)
	}
	report, err := src.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("no error report: %v", err)
	}
	if Kind(report) != KindError {
		t.Fatalf("kind = %q", Kind(report))
	}
	re, ok := RemoteErrorFrom(report)
	if !ok {
		t.Fatal("report carries no typed error")
	}
	if !errors.Is(re, ErrPolicyDenied) {
		t.Errorf("errors.Is(re, ErrPolicyDenied) = false; re = %v", re)
	}
	if re.Code != "fw_policy_denied" {
		t.Errorf("code = %q, want fw_policy_denied", re.Code)
	}
	// Exactly one deny decision was audited, on h2.
	if got := countEvents(tel, telemetry.EventDeny, "policy rule=p1.default"); got != 1 {
		t.Errorf("cross-host deny audit events = %d, want 1", got)
	}
}

// TestPolicyMgmtOps: the management plane exposes the ruleset (OpPolicy)
// and hot reload (OpPolicyLoad), and a bad reload comes back as a
// KindError reply while the old ruleset keeps running.
func TestPolicyMgmtOps(t *testing.T) {
	f, _ := policyFixture(t, vclock.NewVirtual(), map[string]string{
		"h1": "default deny\nmg: allow alice mgmt **\n",
	}, policy.Quota{}, "h1")
	fw := f.sites["h1"].fw
	al, _ := fw.Register("vm_go", "alice", "ctl")

	reply := mgmtRequest(t, fw, al, OpPolicy, "")
	rows, err := reply.Folder(FolderReply)
	if err != nil {
		t.Fatalf("policy reply has no rows: %v", err)
	}
	text := strings.Join(rows.Strings(), "\n")
	if !strings.Contains(text, "version|1") || !strings.Contains(text, "p1.mg|allow|alice|mgmt|**") {
		t.Errorf("policy description:\n%s", text)
	}

	// policyload is System-gated: alice (Trusted) is refused.
	reply = mgmtRequest(t, fw, al, OpPolicyLoad, "default allow\n")
	if Kind(reply) != KindError {
		t.Fatal("trusted principal performed a System-only reload")
	}

	sys, _ := fw.Register("vm_go", "system", "sysctl")
	reply = mgmtRequest(t, fw, sys, OpPolicyLoad, "default deny\nmg: allow alice mgmt **\nnew: allow alice send **\n")
	if Kind(reply) == KindError {
		t.Fatalf("system reload refused: %v", reply)
	}
	rows, err = reply.Folder(FolderReply)
	if err != nil || len(rows.Strings()) != 1 || rows.Strings()[0] != "version|2" {
		t.Fatalf("policyload reply = %v (err %v), want [version|2]", rows, err)
	}

	// An invalid ruleset through the wire: typed error, old rules live.
	reply = mgmtRequest(t, fw, sys, OpPolicyLoad, "garbage here\n")
	if Kind(reply) != KindError {
		t.Fatal("invalid reload accepted over mgmt")
	}
	if got := fw.Policy().Version(); got != 2 {
		t.Errorf("version after bad mgmt reload = %d, want 2", got)
	}
}

// auditRules is the ruleset the one-per-decision table mediates under:
// the target's principal picks alice's verdict, and dave is the
// quota-limited sender (one message per refill).
const auditRules = `default deny
ok:    allow alice send alice/**
no:    deny  alice send bob/**
hold:  park  alice send carol/**
dok:   allow dave  send alice/**
dhold: park  dave  send carol/**
lim:   quota dave rate=1 burst=1
`

// auditSite is one mediating host (h1: policy engine, relay, durable
// park journal, its own event log) between two plain neighbours, with
// the verdict counters and tenant-visible audit events it has produced
// since the last mark.
type auditSite struct {
	t   *testing.T
	fw  *Firewall
	tel *telemetry.Telemetry
	src *Registration // alice/src on h1
	dav *Registration // dave/src on h1
	ctr map[string]int64
	evs int
}

// verdictCounters are the counters emit owns: exactly one terminal
// counter per outcome, plus policy_allow / policy_park as its qualifier.
var verdictCounters = []string{
	"fw.delivered", "fw.forwarded", "fw.relayed", "fw.queued", "fw.expired", "fw.auth_failures", "fw.errors",
	"fw.policy_allow", "fw.policy_deny", "fw.policy_park", "fw.policy_quota",
}

func newAuditSite(t *testing.T) *auditSite {
	t.Helper()
	s := &auditSite{t: t, tel: telemetry.New(telemetry.Options{Host: "h1", Spans: true, Events: true})}
	f := newFixture(t)
	f.config = func(c *Config) {
		if c.HostName != "h1" {
			return
		}
		c.Telemetry = s.tel
		c.Relay = true
		c.Durable = cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual()})
		c.Policy = policy.New(vclock.NewVirtual(), policy.MustParse(auditRules), policy.Quota{})
	}
	for _, h := range []string{"h1", "h2", "h3"} {
		f.addHost(h)
	}
	s.fw = f.sites["h1"].fw
	s.register()
	for _, h := range []string{"h2", "h3"} {
		if _, err := f.sites[h].fw.Register("vm_go", "alice", "dst"); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// register (re-)creates h1's agents: the two senders and alice/dst.
func (s *auditSite) register() {
	s.src, _ = s.fw.Register("vm_go", "alice", "src")
	s.dav, _ = s.fw.Register("vm_go", "dave", "src")
	if _, err := s.fw.Register("vm_go", "alice", "dst"); err != nil {
		s.t.Fatal(err)
	}
}

// frame is what h2's firewall would put on the wire for sender -> target.
func frame(sender, target string) []byte {
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysSender, "tacoma://h2/"+sender+"/src:1")
	bc.SetString(briefcase.FolderSysTarget, target)
	bc.SetString("BODY", "x")
	return bc.Encode()
}

// tenantEvents are h1's audit events a mediation verdict produced:
// everything but the system principal's own traffic (error replies,
// reload notices) and RecoverDurable's lifecycle notes.
func (s *auditSite) tenantEvents() []telemetry.Event {
	var out []telemetry.Event
	for _, e := range s.tel.Events().Snapshot() {
		if e.Principal != "system" && e.Type != telemetry.EventRecover && !strings.HasPrefix(e.Cause, "recovered park") {
			out = append(out, e)
		}
	}
	return out
}

func (s *auditSite) mark() {
	s.ctr = map[string]int64{}
	for _, name := range verdictCounters {
		s.ctr[name] = s.tel.Registry().Counter(name, "host", "h1").Value()
	}
	s.evs = len(s.tenantEvents())
}

// since checks the one mediation driven since mark: exactly one tenant
// audit event, of the given type and cause, and exactly the given
// verdict-counter deltas.
func (s *auditSite) since(typ, cause string, want map[string]int64) {
	s.t.Helper()
	evs := s.tenantEvents()[s.evs:]
	if len(evs) != 1 || evs[0].Type != typ || !strings.Contains(evs[0].Cause, cause) {
		s.t.Errorf("audit events = %+v, want exactly one %s containing %q", evs, typ, cause)
	}
	for _, name := range verdictCounters {
		if got := s.tel.Registry().Counter(name, "host", "h1").Value() - s.ctr[name]; got != want[name] {
			s.t.Errorf("%s advanced %d, want %d", name, got, want[name])
		}
	}
}

// TestPolicyAuditOnePerDecision: whichever door a unit comes through —
// local send, remote send, inbound frame, reload re-dispatch,
// crash-recovered park, registration flush, relay — and whatever the
// verdict, one mediation leaves exactly one audit event carrying its
// rule id and bumps exactly one terminal counter (plus policy_allow /
// policy_park as its qualifier): no silent verdicts, no double-logging,
// no double-counting. A refusal of an inbound or held message also
// sends the system's typed error reply, which shows as its own
// fw.forwarded / fw.delivered.
func TestPolicyAuditOnePerDecision(t *testing.T) {
	type counts = map[string]int64
	// drain spends dave's one-message burst, so his next send is refused.
	drain := func(s *auditSite) {
		if err := sendErr(s.fw, s.dav, "alice/dst", "drain"); err != nil {
			t.Fatal(err)
		}
	}
	// hold parks one message under the park rules, to be re-mediated.
	hold := func(from func(*auditSite) *Registration, target string) func(*auditSite) {
		return func(s *auditSite) {
			if err := sendErr(s.fw, from(s), target, "held"); err != nil || s.fw.Pending() != 1 {
				t.Fatalf("hold: err %v, pending %d", err, s.fw.Pending())
			}
		}
	}
	alice := func(s *auditSite) *Registration { return s.src }
	dave := func(s *auditSite) *Registration { return s.dav }
	send := func(from func(*auditSite) *Registration, target string) func(*auditSite) {
		return func(s *auditSite) { _ = sendErr(s.fw, from(s), target, "x") }
	}
	inbound := func(sender, target string) func(*auditSite) {
		return func(s *auditSite) { s.fw.handleInbound("h2", frame(sender, target)) }
	}
	// reload installs rules giving the held carol/dst message a new
	// verdict. (A reload refills every bucket, so the row that wants a
	// quota refusal at re-dispatch brings a byte quota no frame fits.)
	reload := func(rules string) func(*auditSite) {
		return func(s *auditSite) {
			if _, err := s.fw.ReloadPolicy("default deny\n" + rules + "dok: allow dave send alice/**\nlim: quota dave rate=1 burst=1\n"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// crash loses power with one message held, reboots under new rules
	// and re-registers; recover then replays the journal.
	crash := func(from func(*auditSite) *Registration, rules string, more ...func(*auditSite)) func(*auditSite) {
		return func(s *auditSite) {
			hold(from, "carol/dst")(s)
			s.fw.CrashWipe()
			reload(rules)(s)
			s.register()
			for _, fn := range more {
				fn(s)
			}
		}
	}
	recover := func(s *auditSite) { s.fw.RecoverDurable() }
	carolDst := func(s *auditSite) { _, _ = s.fw.Register("vm_go", "carol", "dst") }

	for _, row := range []struct {
		name  string
		setup []func(*auditSite)
		do    func(*auditSite)
		typ   string
		cause string
		want  counts
	}{
		{"local/allow", nil, send(alice, "alice/dst"),
			telemetry.EventAllow, "rule=p1.ok", counts{"fw.policy_allow": 1, "fw.delivered": 1}},
		{"local/deny", nil, send(alice, "bob/x"),
			telemetry.EventDeny, "policy rule=p1.no", counts{"fw.policy_deny": 1}},
		{"local/park", nil, send(alice, "carol/x"),
			telemetry.EventPark, "policy rule=p1.hold", counts{"fw.policy_park": 1, "fw.queued": 1}},
		{"local/quota", []func(*auditSite){drain}, send(dave, "alice/dst"),
			telemetry.EventQuota, "quota rule=p1.lim", counts{"fw.policy_quota": 1}},

		{"remote/allow", nil, send(alice, "tacoma://h2/alice/dst"),
			telemetry.EventForward, "rule=p1.ok", counts{"fw.policy_allow": 1, "fw.forwarded": 1}},
		{"remote/deny", nil, send(alice, "tacoma://h2/bob/x"),
			telemetry.EventDeny, "policy rule=p1.no", counts{"fw.policy_deny": 1}},
		{"remote/park", nil, send(alice, "tacoma://h2/carol/x"),
			telemetry.EventPark, "policy rule=p1.hold", counts{"fw.policy_park": 1, "fw.queued": 1}},
		{"remote/quota", []func(*auditSite){drain}, send(dave, "tacoma://h2/alice/dst"),
			telemetry.EventQuota, "quota rule=p1.lim", counts{"fw.policy_quota": 1}},

		{"inbound/allow", nil, inbound("alice", "tacoma://h1/alice/dst"),
			telemetry.EventAllow, "rule=p1.ok", counts{"fw.policy_allow": 1, "fw.delivered": 1}},
		{"inbound/deny", nil, inbound("alice", "tacoma://h1/bob/x"),
			telemetry.EventDeny, "policy rule=p1.no", counts{"fw.policy_deny": 1, "fw.forwarded": 1}},
		{"inbound/park", nil, inbound("alice", "tacoma://h1/carol/x"),
			telemetry.EventPark, "policy rule=p1.hold", counts{"fw.policy_park": 1, "fw.queued": 1}},
		{"inbound/quota", []func(*auditSite){drain}, inbound("dave", "tacoma://h1/alice/dst"),
			telemetry.EventQuota, "quota rule=p1.lim", counts{"fw.policy_quota": 1, "fw.forwarded": 1}},

		{"reload/allow", []func(*auditSite){hold(alice, "carol/dst"), carolDst}, reload("ok: allow alice send carol/**\n"),
			telemetry.EventAllow, "rule=p2.ok", counts{"fw.policy_allow": 1, "fw.delivered": 1}},
		{"reload/deny", []func(*auditSite){hold(alice, "carol/dst")}, reload("no: deny alice send carol/**\n"),
			telemetry.EventDeny, "policy rule=p2.no", counts{"fw.policy_deny": 1, "fw.delivered": 1}},
		{"reload/park", []func(*auditSite){hold(alice, "carol/dst")}, reload("hold: park alice send carol/**\n"),
			telemetry.EventPark, "policy rule=p2.hold", counts{"fw.policy_park": 1, "fw.queued": 1}},
		{"reload/quota", []func(*auditSite){hold(dave, "tacoma://h2/carol/dst")},
			reload("dc: allow dave send carol/**\nthin: quota dave rate=1000 bytes=1\n"),
			telemetry.EventQuota, "quota rule=p2.thin", counts{"fw.policy_quota": 1, "fw.delivered": 1}},

		{"recovered/allow", []func(*auditSite){crash(alice, "ok: allow alice send carol/**\n", carolDst)}, recover,
			telemetry.EventAllow, "rule=p2.ok", counts{"fw.policy_allow": 1, "fw.delivered": 1}},
		{"recovered/deny", []func(*auditSite){crash(alice, "no: deny alice send carol/**\n")}, recover,
			telemetry.EventDeny, "policy rule=p2.no", counts{"fw.policy_deny": 1}},
		{"recovered/park", []func(*auditSite){crash(alice, "hold: park alice send carol/**\n")}, recover,
			telemetry.EventPark, "policy rule=p2.hold", counts{"fw.policy_park": 1, "fw.queued": 1}},
		{"recovered/quota", []func(*auditSite){crash(dave, "dc: allow dave send carol/**\n", carolDst, drain)}, recover,
			telemetry.EventQuota, "quota rule=p2.lim", counts{"fw.policy_quota": 1}},

		// A flush keeps the verdict the message parked under (its
		// policy_allow was counted then): one allow event, one delivery.
		{"flush/allow", []func(*auditSite){send(alice, "alice/late")},
			func(s *auditSite) { _, _ = s.fw.Register("vm_go", "alice", "late") },
			telemetry.EventAllow, "unparked on registration", counts{"fw.delivered": 1}},
		// A relay is header-only and ungated: exactly one forward.
		{"relay", nil, inbound("alice", "tacoma://h3/alice/dst"),
			telemetry.EventForward, "relayed to h3", counts{"fw.relayed": 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newAuditSite(t)
			s.t = t
			for _, fn := range row.setup {
				fn(s)
			}
			s.mark()
			row.do(s)
			s.since(row.typ, row.cause, row.want)
			// Every policy event names a rule id.
			for _, e := range s.tenantEvents() {
				if strings.Contains(e.Cause, "policy") && !strings.Contains(e.Cause, "rule=") {
					t.Errorf("policy event without rule id: %q", e.Cause)
				}
			}
		})
	}
}

// TestVerdictCountersAgreeAcrossEntries: the same terminal outcome
// counts the same whichever door it came through. An inbound delivery
// failure used to bump fw.errors twice and an inbound denial bumped
// fw.errors beside fw.policy_deny, while the local send of the same
// message counted once; with one emit point the deltas are equal.
func TestVerdictCountersAgreeAcrossEntries(t *testing.T) {
	delta := func(setup func(*auditSite), do func(*auditSite)) map[string]int64 {
		s := newAuditSite(t)
		setup(s)
		s.mark()
		do(s)
		got := map[string]int64{}
		for _, name := range verdictCounters {
			// The typed error reply an inbound refusal sends back is the
			// system's own forward, not part of the refused mediation.
			if d := s.tel.Registry().Counter(name, "host", "h1").Value() - s.ctr[name]; d != 0 && name != "fw.forwarded" {
				got[name] = d
			}
		}
		return got
	}
	none := func(*auditSite) {}
	// fill leaves alice/dst's mailbox full, so the next delivery fails.
	fill := func(s *auditSite) {
		for i := 0; i < mailboxSize; i++ {
			if err := sendErr(s.fw, s.src, "alice/dst", "fill"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name          string
		setup         func(*auditSite)
		local, remote string
		want          map[string]int64
	}{
		{"mailbox full", fill, "alice/dst", "tacoma://h1/alice/dst", map[string]int64{"fw.policy_allow": 1, "fw.errors": 1}},
		{"deny", none, "bob/x", "tacoma://h1/bob/x", map[string]int64{"fw.policy_deny": 1}},
	} {
		local := delta(c.setup, func(s *auditSite) { _ = sendErr(s.fw, s.src, c.local, "x") })
		inbound := delta(c.setup, func(s *auditSite) { s.fw.handleInbound("h2", frame("alice", c.remote)) })
		if !reflect.DeepEqual(local, c.want) || !reflect.DeepEqual(inbound, c.want) {
			t.Errorf("%s: local send counted %v, inbound frame counted %v, want both %v", c.name, local, inbound, c.want)
		}
	}
}

// TestPolicyReloadAtomicUnderConcurrentSends: senders hammer the
// firewall while valid and invalid rulesets install concurrently. Every
// mediation must land on one whole ruleset: since every installed
// ruleset allows the flow, no send may ever fail — an invalid reload
// that left a partially-applied ruleset would surface here as a typed
// denial.
func TestPolicyReloadAtomicUnderConcurrentSends(t *testing.T) {
	f, _ := policyFixture(t, vclock.NewVirtual(), map[string]string{
		"h1": "default deny\na: allow alice send **\n",
	}, policy.Quota{}, "h1")
	fw := f.sites["h1"].fw
	src, _ := fw.Register("vm_go", "alice", "src")
	dst, _ := fw.Register("vm_go", "alice", "dst")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				if _, err := fw.ReloadPolicy("default deny\nb: allow alice send **\n"); err != nil {
					t.Errorf("valid reload failed: %v", err)
					return
				}
			} else {
				if _, err := fw.ReloadPolicy("default deny\nbroken line\n"); err == nil {
					t.Error("invalid reload accepted")
					return
				}
			}
		}
	}()
	sent := 0
	for i := 0; i < 2000; i++ {
		if err := sendErr(fw, src, "alice/dst", "x"); err != nil {
			t.Fatalf("send %d failed mid-reload: %v", i, err)
		}
		sent++
		if sent%100 == 0 { // drain so the mailbox never fills
			for j := 0; j < 100; j++ {
				recvBody(t, dst, time.Second)
			}
		}
	}
	<-done
}
