package firewall

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/simnet"
)

// dropFirst is a simnet injector dropping the first n transfers it sees.
type dropFirst struct {
	mu   sync.Mutex
	left int
}

func (d *dropFirst) Decide(from, to string, now time.Duration, size int) simnet.Decision {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.left > 0 {
		d.left--
		return simnet.Decision{Drop: true}
	}
	return simnet.Decision{}
}

// dupAll duplicates every transfer.
type dupAll struct{}

func (dupAll) Decide(string, string, time.Duration, int) simnet.Decision {
	return simnet.Decision{Duplicate: true}
}

// TestRetryPolicyCodec pins the _RETRY wire form: total round-trips and
// strict rejection of damaged encodings.
func TestRetryPolicyCodec(t *testing.T) {
	roundTrips := []RetryPolicy{
		{},
		{Attempts: 1},
		{Attempts: 8, Backoff: 200 * time.Microsecond},
		{Attempts: 3, Backoff: time.Millisecond, Deadline: time.Second},
	}
	for _, p := range roundTrips {
		got, err := ParseRetryPolicy(p.Encode())
		if err != nil {
			t.Errorf("ParseRetryPolicy(%q): %v", p.Encode(), err)
		}
		if got != p {
			t.Errorf("round trip %q: got %+v want %+v", p.Encode(), got, p)
		}
	}
	malformed := []string{
		"", "3", "3|100", "3|100|5|9", "three|100|0", "3|fast|0", "3|100|later",
		"-1|100|0", "3|-100|0", "3|100|-1", "3|1e3|0", "3|100|", "|100|0",
	}
	for _, s := range malformed {
		if _, err := ParseRetryPolicy(s); !errors.Is(err, ErrBadRetryPolicy) {
			t.Errorf("ParseRetryPolicy(%q) err = %v, want ErrBadRetryPolicy", s, err)
		}
	}
	// Briefcase accessors: absent vs malformed are distinct.
	bc := briefcase.New()
	if _, ok, err := RetryPolicyFrom(bc); ok || err != nil {
		t.Errorf("empty briefcase: ok=%v err=%v", ok, err)
	}
	SetRetryPolicy(bc, RetryPolicy{Attempts: 2, Backoff: time.Millisecond})
	if p, ok, err := RetryPolicyFrom(bc); !ok || err != nil || p.Attempts != 2 {
		t.Errorf("stamped briefcase: p=%+v ok=%v err=%v", p, ok, err)
	}
	bc.SetString(briefcase.FolderSysRetry, "garbage")
	if _, ok, err := RetryPolicyFrom(bc); !ok || !errors.Is(err, ErrBadRetryPolicy) {
		t.Errorf("malformed briefcase: ok=%v err=%v", ok, err)
	}
}

// TestForwardRetriesThroughDrops: a lossy link that eats the first two
// frames still delivers when the briefcase carries a retry policy — in
// virtual time, so no wall-clock sleeping.
func TestForwardRetriesThroughDrops(t *testing.T) {
	f := newFixture(t, "h1", "h2")
	fw1, fw2 := f.sites["h1"].fw, f.sites["h2"].fw
	f.net.SetInjector(&dropFirst{left: 2})
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/alice/receiver")
	bc.SetString("BODY", "persistent")
	SetRetryPolicy(bc, RetryPolicy{Attempts: 4, Backoff: 100 * time.Microsecond})
	if err := fw1.Send(sender.GlobalURI(), bc); err != nil {
		t.Fatalf("send through lossy link: %v", err)
	}
	if got := recvBody(t, recv, 2*time.Second); got != "persistent" {
		t.Errorf("body = %q", got)
	}
	if got := fw1.ctr.retries.Value(); got != 2 {
		t.Errorf("fw.retries = %d, want 2", got)
	}
}

// TestForwardWithoutPolicyFailsFast: no policy means exactly one attempt
// — the pre-retry behavior — and the typed drop error surfaces.
func TestForwardWithoutPolicyFailsFast(t *testing.T) {
	f := newFixture(t, "h1", "h2")
	fw1 := f.sites["h1"].fw
	f.net.SetInjector(&dropFirst{left: 1})
	sender, _ := fw1.Register("vm_go", "alice", "sender")

	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/alice/receiver")
	err := fw1.Send(sender.GlobalURI(), bc)
	if !errors.Is(err, simnet.ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if got := fw1.ctr.retries.Value(); got != 0 {
		t.Errorf("fw.retries = %d, want 0", got)
	}
}

// TestForwardGiveUpExhaustsBudget: a link that never heals exhausts the
// attempt budget and the final error is the typed transport failure.
func TestForwardGiveUpExhaustsBudget(t *testing.T) {
	f := newFixture(t, "h1", "h2")
	fw1 := f.sites["h1"].fw
	f.net.SetInjector(&dropFirst{left: 1 << 30})
	sender, _ := fw1.Register("vm_go", "alice", "sender")

	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/alice/receiver")
	SetRetryPolicy(bc, RetryPolicy{Attempts: 3, Backoff: 50 * time.Microsecond})
	err := fw1.Send(sender.GlobalURI(), bc)
	if !errors.Is(err, simnet.ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if got := fw1.ctr.retries.Value(); got != 2 {
		t.Errorf("fw.retries = %d, want 2 (3 attempts)", got)
	}
}

// TestForwardDeadlineCapsBackoff: the deadline stops the exponential
// backoff before the attempt budget is spent. Backoffs advance the
// virtual clock, so the deadline check is exact, not wall-clock flaky.
func TestForwardDeadlineCapsBackoff(t *testing.T) {
	f := newFixture(t, "h1", "h2")
	fw1 := f.sites["h1"].fw
	f.net.SetInjector(&dropFirst{left: 1 << 30})
	sender, _ := fw1.Register("vm_go", "alice", "sender")

	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/alice/receiver")
	// 1ms, 2ms, 4ms, ... against a 3ms budget: attempts 1 and 2 run
	// (cumulative backoff 1ms then 3ms > deadline before attempt 3).
	SetRetryPolicy(bc, RetryPolicy{Attempts: 10, Backoff: time.Millisecond, Deadline: 3 * time.Millisecond})
	if err := fw1.Send(sender.GlobalURI(), bc); err == nil {
		t.Fatal("send through dead link succeeded")
	}
	if got := fw1.ctr.retries.Value(); got >= 9 {
		t.Errorf("fw.retries = %d, deadline never capped the budget", got)
	}
}

// TestNodeDefaultRetryPolicy: the host-level ForwardRetry applies when
// the briefcase carries no policy of its own, and a malformed _RETRY
// folder falls back to it instead of poisoning the send.
func TestNodeDefaultRetryPolicy(t *testing.T) {
	f := newFixture(t, "h1")
	f.config = func(c *Config) {
		c.ForwardRetry = RetryPolicy{Attempts: 3, Backoff: 50 * time.Microsecond}
	}
	f.addHost("h2")
	f.config = nil
	fw2 := f.sites["h2"].fw
	f.net.SetInjector(&dropFirst{left: 2})
	sender, _ := fw2.Register("vm_go", "alice", "sender")
	recvFW := f.sites["h1"].fw
	recv, _ := recvFW.Register("vm_go", "alice", "receiver")

	send(t, fw2, sender, "tacoma://h1/alice/receiver", "host default")
	if got := recvBody(t, recv, 2*time.Second); got != "host default" {
		t.Errorf("body = %q", got)
	}

	// Malformed briefcase policy: audited, ignored, default still wins.
	f.net.SetInjector(&dropFirst{left: 1})
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h1/alice/receiver")
	bc.SetString("BODY", "survived garbage")
	bc.SetString(briefcase.FolderSysRetry, "not|a\\policy")
	if err := fw2.Send(sender.GlobalURI(), bc); err != nil {
		t.Fatalf("send with malformed policy: %v", err)
	}
	if got := recvBody(t, recv, 2*time.Second); got != "survived garbage" {
		t.Errorf("body = %q", got)
	}
}

// TestDedupWindowSuppressesDuplicates: with a dedup window the second
// copy of an injected duplicate frame is dropped before mediation; the
// receiver sees the briefcase once.
func TestDedupWindowSuppressesDuplicates(t *testing.T) {
	f := newFixture(t, "h1")
	f.config = func(c *Config) { c.DedupWindow = 16 }
	f.addHost("h2")
	f.config = nil
	fw1, fw2 := f.sites["h1"].fw, f.sites["h2"].fw
	f.net.SetInjector(dupAll{})
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	send(t, fw1, sender, "tacoma://h2/alice/receiver", "once only")
	if got := recvBody(t, recv, 2*time.Second); got != "once only" {
		t.Errorf("body = %q", got)
	}
	if _, ok := recv.TryRecv(); ok {
		t.Error("duplicate frame was delivered twice despite dedup window")
	}
	deadline := time.Now().Add(time.Second)
	for fw2.ctr.dupDropped.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := fw2.ctr.dupDropped.Value(); got != 1 {
		t.Errorf("fw.dup_dropped = %d, want 1", got)
	}
}

// TestWithoutDedupWindowDuplicatesArriveTwice documents the default:
// duplicate suppression is opt-in, because legitimate identical
// messages (two equal KindMessage sends) hash identically too.
func TestWithoutDedupWindowDuplicatesArriveTwice(t *testing.T) {
	f := newFixture(t, "h1", "h2")
	fw1, fw2 := f.sites["h1"].fw, f.sites["h2"].fw
	f.net.SetInjector(dupAll{})
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	send(t, fw1, sender, "tacoma://h2/alice/receiver", "twice")
	if got := recvBody(t, recv, 2*time.Second); got != "twice" {
		t.Errorf("body = %q", got)
	}
	if got := recvBody(t, recv, 2*time.Second); got != "twice" {
		t.Errorf("second copy body = %q", got)
	}
}

// TestExpiryNoticeParkedWhenReplyPathPartitioned is the reported bug's
// regression: a parked message expires while the sender's host is
// partitioned away. The old firewall dropped the expiry notice on the
// floor; now it parks the typed KindError envelope (observable via
// Pending and the audit log) and delivers it when the partition heals.
func TestExpiryNoticeParkedWhenReplyPathPartitioned(t *testing.T) {
	f := newFixture(t, "h1", "h2")
	fw1, fw2 := f.sites["h1"].fw, f.sites["h2"].fw
	sender, _ := fw1.Register("vm_go", "alice", "sender")

	// A message parks on h2 for an agent that never registers.
	send(t, fw1, sender, "tacoma://h2/alice/ghost", "doomed")
	deadline := time.Now().Add(2 * time.Second)
	for fw2.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fw2.Pending() != 1 {
		t.Fatalf("message never parked on h2 (pending=%d)", fw2.Pending())
	}

	// Cut the reply path before the queue timeout (300ms) fires.
	f.net.Partition("h1", "h2")
	deadline = time.Now().Add(3 * time.Second)
	for fw2.ctr.expired.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if fw2.ctr.expired.Value() == 0 {
		t.Fatal("parked message never expired")
	}
	// The expiry notice could not be sent home: it must be parked as a
	// typed envelope, not silently dropped.
	deadline = time.Now().Add(2 * time.Second)
	for fw2.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fw2.Pending() != 1 {
		t.Fatalf("expiry notice not parked (pending=%d)", fw2.Pending())
	}

	// Heal; the envelope's own expiry performs the final delivery.
	f.net.Heal("h1", "h2")
	bc, err := sender.Recv(3 * time.Second)
	if err != nil {
		t.Fatalf("expiry notice never reached the sender after heal: %v", err)
	}
	if Kind(bc) != KindError {
		t.Errorf("notice kind = %q, want %q", Kind(bc), KindError)
	}
	msg, _ := bc.GetString(briefcase.FolderSysError)
	if !strings.Contains(msg, "expired") {
		t.Errorf("notice text = %q, want mention of expiry", msg)
	}
}

// TestPendingGaugeTracksQueue: the fw.pending gauge follows park,
// expiry and delivery so parked traffic is observable without polling.
func TestPendingGaugeTracksQueue(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")

	send(t, fw, sender, "alice/late", "for later")
	if fw.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", fw.Pending())
	}
	if got := fw.gaugePending.Value(); got != 1 {
		t.Errorf("fw.pending gauge = %d, want 1", got)
	}
	late, _ := fw.Register("vm_go", "alice", "late")
	if got := recvBody(t, late, time.Second); got != "for later" {
		t.Errorf("body = %q", got)
	}
	if got := fw.gaugePending.Value(); got != 0 {
		t.Errorf("fw.pending gauge = %d after delivery, want 0", got)
	}
}
