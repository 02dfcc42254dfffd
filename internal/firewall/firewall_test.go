package firewall

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/identity"
	"tax/internal/simnet"
)

// testSite is one simulated host with a firewall, plus the shared
// principals of a two-host test fixture.
type testSite struct {
	fw   *Firewall
	host *simnet.Host
}

type fixture struct {
	net    *simnet.Network
	sys    *identity.Principal
	alice  *identity.Principal
	mal    *identity.Principal
	trust  *identity.TrustStore
	sites  map[string]*testSite
	t      *testing.T
	config func(*Config)
}

func newFixture(t *testing.T, hosts ...string) *fixture {
	t.Helper()
	f := &fixture{
		net:   simnet.New(simnet.LAN100),
		trust: &identity.TrustStore{},
		sites: map[string]*testSite{},
		t:     t,
	}
	t.Cleanup(func() { _ = f.net.Close() })
	var err error
	if f.sys, err = identity.NewPrincipal("system"); err != nil {
		t.Fatal(err)
	}
	if f.alice, err = identity.NewPrincipal("alice"); err != nil {
		t.Fatal(err)
	}
	if f.mal, err = identity.NewPrincipal("mallory"); err != nil {
		t.Fatal(err)
	}
	f.trust.AddPrincipal(f.sys, identity.System)
	f.trust.AddPrincipal(f.alice, identity.Trusted)
	// mallory is deliberately not in the trust store.
	for _, h := range hosts {
		f.addHost(h)
	}
	return f
}

func (f *fixture) addHost(name string) *testSite {
	f.t.Helper()
	h, err := f.net.AddHost(name)
	if err != nil {
		f.t.Fatal(err)
	}
	cfg := Config{
		HostName:        name,
		Node:            h,
		Trust:           f.trust,
		SystemPrincipal: "system",
		QueueTimeout:    300 * time.Millisecond,
	}
	if f.config != nil {
		f.config(&cfg)
	}
	fw, err := New(cfg)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { _ = fw.Close() })
	s := &testSite{fw: fw, host: h}
	f.sites[name] = s
	return s
}

// send builds a briefcase targeted at target and sends it from reg.
func send(t *testing.T, fw *Firewall, from *Registration, target string, body string) {
	t.Helper()
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, target)
	bc.SetString("BODY", body)
	if err := fw.Send(from.GlobalURI(), bc); err != nil {
		t.Fatalf("send to %s: %v", target, err)
	}
}

func recvBody(t *testing.T, r *Registration, timeout time.Duration) string {
	t.Helper()
	bc, err := r.Recv(timeout)
	if err != nil {
		t.Fatalf("recv on %s: %v", r.URI(), err)
	}
	body, _ := bc.GetString("BODY")
	return body
}

func TestRegisterAllocatesInstances(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	r1, err := fw.Register("vm_go", "alice", "worker")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fw.Register("vm_go", "alice", "worker")
	if err != nil {
		t.Fatal(err)
	}
	if r1.URI().Instance == r2.URI().Instance {
		t.Error("two registrations share an instance number")
	}
	if !r1.URI().HasInstance {
		t.Error("registration without instance")
	}
	if r1.VM() != "vm_go" {
		t.Errorf("VM = %q", r1.VM())
	}
	if _, err := fw.Register("vm_go", "alice", ""); err == nil {
		t.Error("empty agent name accepted")
	}
}

func TestLocalDeliveryByName(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")
	recv, _ := fw.Register("vm_go", "alice", "receiver")

	send(t, fw, sender, "alice/receiver", "hello")
	if got := recvBody(t, recv, time.Second); got != "hello" {
		t.Errorf("body = %q", got)
	}

	// The firewall must have stamped the authenticated sender.
	send(t, fw, sender, "alice/receiver", "again")
	bc, err := recv.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	senderURI, _ := bc.GetString(briefcase.FolderSysSender)
	if !strings.Contains(senderURI, "sender") {
		t.Errorf("_SENDER = %q", senderURI)
	}
}

func TestSenderFolderCannotBeSpoofed(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")
	recv, _ := fw.Register("vm_go", "alice", "receiver")

	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "alice/receiver")
	bc.SetString(briefcase.FolderSysSender, "tacoma://evil/system/firewall")
	if err := fw.Send(sender.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	got, err := recv.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := got.GetString(briefcase.FolderSysSender)
	if strings.Contains(s, "evil") {
		t.Errorf("spoofed sender survived: %q", s)
	}
}

func TestExactInstancePreferred(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")
	a, _ := fw.Register("vm_go", "alice", "svc")
	b, _ := fw.Register("vm_go", "alice", "svc")

	send(t, fw, sender, b.URI().String(), "pin")
	if got := recvBody(t, b, time.Second); got != "pin" {
		t.Errorf("instance-pinned message went astray: %q", got)
	}
	if _, ok := a.TryRecv(); ok {
		t.Error("wrong instance received the message")
	}
}

func TestClassAddressing(t *testing.T) {
	// Name-only addressing reaches some agent of the class (§3.2:
	// "useful if one wishes to establish communication with a broader
	// class of agents like service agents").
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")
	svc, _ := fw.Register("vm_go", "system", "ag_fs")

	send(t, fw, sender, "ag_fs", "open")
	if got := recvBody(t, svc, time.Second); got != "open" {
		t.Errorf("class-addressed body = %q", got)
	}
}

func TestEmptyPrincipalRule(t *testing.T) {
	// With no principal in the query, only the local system principal or
	// the sender's own principal are valid targets.
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	alice, _ := fw.Register("vm_go", "alice", "mine")
	bobAgent, _ := fw.Register("vm_go", "bob", "theirs")
	sysAgent, _ := fw.Register("vm_go", "system", "sysag")

	// alice → her own agent: allowed (sender and receiver are the same
	// registration here, which is fine — it exercises the principal rule).
	send(t, fw, alice, "mine", "self")
	if got := recvBody(t, alice, time.Second); got != "self" {
		t.Errorf("own-principal delivery failed: %q", got)
	}

	// alice → system agent without principal: allowed.
	send(t, fw, alice, "sysag", "sys")
	if got := recvBody(t, sysAgent, time.Second); got != "sys" {
		t.Errorf("system delivery failed: %q", got)
	}

	// alice → bob's agent without naming bob: must NOT deliver (parks).
	send(t, fw, alice, "theirs", "sneak")
	if _, ok := bobAgent.TryRecv(); ok {
		t.Error("empty-principal query reached a foreign principal")
	}

	// Naming bob explicitly works.
	send(t, fw, alice, "bob/theirs", "overt")
	if got := recvBody(t, bobAgent, time.Second); got != "overt" {
		t.Errorf("explicit-principal delivery failed: %q", got)
	}
}

func TestQueueUntilRegistered(t *testing.T) {
	// Messages to agents that "have not yet arrived at the site" are
	// queued and delivered on registration.
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")

	send(t, fw, sender, "alice/latecomer", "early bird")
	if fw.ctr.queued.Value() != 1 {
		t.Fatalf("queued = %d, want 1", fw.ctr.queued.Value())
	}
	late, _ := fw.Register("vm_go", "alice", "latecomer")
	if got := recvBody(t, late, time.Second); got != "early bird" {
		t.Errorf("parked message body = %q", got)
	}
}

func TestQueueTimeoutExpiresAndReportsError(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")

	send(t, fw, sender, "alice/ghost", "lost")
	// Wait past the queue timeout (300ms in fixture).
	deadline := time.Now().Add(3 * time.Second)
	for fw.ctr.expired.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if fw.ctr.expired.Value() != 1 {
		t.Fatalf("expired = %d, want 1", fw.ctr.expired.Value())
	}
	// The sender receives a KindError report.
	bc, err := sender.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("no error report: %v", err)
	}
	if Kind(bc) != KindError {
		t.Errorf("kind = %q", Kind(bc))
	}
	msg, _ := bc.GetString(briefcase.FolderSysError)
	if !strings.Contains(msg, "expired") {
		t.Errorf("error text = %q", msg)
	}
	// The late registration gets nothing.
	ghost, _ := fw.Register("vm_go", "alice", "ghost")
	if _, ok := ghost.TryRecv(); ok {
		t.Error("expired message still delivered")
	}
}

func TestRemoteDelivery(t *testing.T) {
	f := newFixture(t, "h1", "h2")
	fw1, fw2 := f.sites["h1"].fw, f.sites["h2"].fw
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	send(t, fw1, sender, "tacoma://h2/alice/receiver", "across")
	if got := recvBody(t, recv, 2*time.Second); got != "across" {
		t.Errorf("remote body = %q", got)
	}
	if fw1.ctr.forwarded.Value() != 1 {
		t.Errorf("h1 forwarded = %d", fw1.ctr.forwarded.Value())
	}
	if fw2.ctr.delivered.Value() != 1 {
		t.Errorf("h2 delivered = %d", fw2.ctr.delivered.Value())
	}
}

func TestRemoteDeliveryChargesVirtualTime(t *testing.T) {
	f := newFixture(t, "h1", "h2")
	fw1, fw2 := f.sites["h1"].fw, f.sites["h2"].fw
	sender, _ := fw1.Register("vm_go", "alice", "sender")
	recv, _ := fw2.Register("vm_go", "alice", "receiver")

	before := fw2.Clock().Now()
	send(t, fw1, sender, "tacoma://h2/alice/receiver", "tick")
	if _, err := recv.Recv(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fw2.Clock().Now() <= before {
		t.Error("remote delivery advanced no virtual time")
	}
}

func TestSendToUnknownHostFails(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://nowhere/alice/x")
	if err := fw.Send(sender.GlobalURI(), bc); err == nil {
		t.Error("send to unknown host succeeded")
	}
}

func TestSendWithoutTarget(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")
	if err := fw.Send(sender.GlobalURI(), briefcase.New()); !errors.Is(err, ErrNoTarget) {
		t.Errorf("err = %v, want ErrNoTarget", err)
	}
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "::bad::")
	if err := fw.Send(sender.GlobalURI(), bc); err == nil {
		t.Error("bad target accepted")
	}
}

func TestUnregisterWakesReceiver(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	r, _ := fw.Register("vm_go", "alice", "worker")
	done := make(chan error, 1)
	go func() {
		_, err := r.Recv(0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	fw.Unregister(r)
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Errorf("Recv err = %v, want ErrKilled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not wake on unregister")
	}
}

func TestRecvTimeout(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	r, _ := fw.Register("vm_go", "alice", "worker")
	start := time.Now()
	_, err := r.Recv(50 * time.Millisecond)
	if !errors.Is(err, ErrRecvTimeout) {
		t.Errorf("err = %v, want ErrRecvTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout overshot")
	}
}

func TestCloseKillsAll(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	r, _ := fw.Register("vm_go", "alice", "worker")
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Recv(time.Second); !errors.Is(err, ErrKilled) {
		t.Errorf("Recv after close = %v", err)
	}
	if _, err := fw.Register("vm_go", "alice", "late"); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after close = %v", err)
	}
	if err := fw.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestMailboxOverflow(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	sender, _ := fw.Register("vm_go", "alice", "sender")
	_, _ = fw.Register("vm_go", "alice", "sink")

	var overflowed bool
	for i := 0; i < mailboxSize+8; i++ {
		bc := briefcase.New()
		bc.SetString(briefcase.FolderSysTarget, "alice/sink")
		if err := fw.Send(sender.GlobalURI(), bc); err != nil {
			if !errors.Is(err, ErrMailboxFull) {
				t.Fatalf("unexpected send error: %v", err)
			}
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Error("mailbox never overflowed")
	}
}
