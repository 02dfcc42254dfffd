package firewall

import (
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/identity"
	"tax/internal/simnet"
)

// channelFixture builds two hosts whose firewalls sign and verify the
// inter-firewall channel.
func channelFixture(t *testing.T, signA, signB, authA, authB bool) (*Firewall, *Firewall, *simnet.Network, *identity.TrustStore) {
	t.Helper()
	net := simnet.New(simnet.LAN100)
	t.Cleanup(func() { _ = net.Close() })
	trust := &identity.TrustStore{}

	mk := func(name string, sign, auth bool) *Firewall {
		host, err := net.AddHost(name)
		if err != nil {
			t.Fatal(err)
		}
		var signer *identity.Principal
		if sign {
			signer, err = identity.NewPrincipal("fw-" + name)
			if err != nil {
				t.Fatal(err)
			}
			trust.AddPrincipal(signer, identity.Trusted)
		}
		fw, err := New(Config{
			HostName:        name,
			Node:            host,
			Trust:           trust,
			SystemPrincipal: "system",
			ChannelSigner:   signer,
			ChannelAuth:     auth,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fw.Close() })
		return fw
	}
	a := mk("a", signA, authA)
	b := mk("b", signB, authB)
	return a, b, net, trust
}

func sendAcross(t *testing.T, from *Firewall, target, body string) *Registration {
	t.Helper()
	sender, err := from.Register("vm", "system", "sender")
	if err != nil {
		t.Fatal(err)
	}
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, target)
	bc.SetString("BODY", body)
	if err := from.Send(sender.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	return sender
}

func TestChannelSignedFrameAccepted(t *testing.T) {
	a, b, _, _ := channelFixture(t, true, true, true, true)
	recv, err := b.Register("vm", "system", "recv")
	if err != nil {
		t.Fatal(err)
	}
	sendAcross(t, a, "tacoma://b/system/recv", "sealed hello")
	got, err := recv.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("sealed frame lost: %v", err)
	}
	if body, _ := got.GetString("BODY"); body != "sealed hello" {
		t.Errorf("body = %q", body)
	}
}

func TestChannelUnsignedFrameRejected(t *testing.T) {
	// a does not sign; b requires channel auth.
	a, b, _, _ := channelFixture(t, false, true, false, true)
	recv, err := b.Register("vm", "system", "recv")
	if err != nil {
		t.Fatal(err)
	}
	sendAcross(t, a, "tacoma://b/system/recv", "sneaky")
	deadline := time.Now().Add(2 * time.Second)
	for b.ctr.authFailures.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if b.ctr.authFailures.Value() == 0 {
		t.Fatal("unsigned frame not rejected")
	}
	if _, ok := recv.TryRecv(); ok {
		t.Error("unsigned frame delivered")
	}
}

func TestChannelUntrustedSignerRejected(t *testing.T) {
	// a signs with a principal b does not trust (fresh store entry is
	// added by the fixture, so remove it).
	a, b, _, trust := channelFixture(t, true, true, true, true)
	trust.Remove("fw-a")
	recv, err := b.Register("vm", "system", "recv")
	if err != nil {
		t.Fatal(err)
	}
	sendAcross(t, a, "tacoma://b/system/recv", "forged")
	deadline := time.Now().Add(2 * time.Second)
	for b.ctr.authFailures.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if b.ctr.authFailures.Value() == 0 {
		t.Fatal("untrusted signer accepted")
	}
	if _, ok := recv.TryRecv(); ok {
		t.Error("forged frame delivered")
	}
}

func TestChannelSealedFramesInteropWithRelaxedReceiver(t *testing.T) {
	// a signs, b does not require auth: sealed frames still route.
	a, b, _, _ := channelFixture(t, true, false, false, false)
	recv, err := b.Register("vm", "system", "recv")
	if err != nil {
		t.Fatal(err)
	}
	sendAcross(t, a, "tacoma://b/system/recv", "relaxed")
	got, err := recv.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("sealed frame to relaxed receiver lost: %v", err)
	}
	if body, _ := got.GetString("BODY"); body != "relaxed" {
		t.Errorf("body = %q", body)
	}
}

func TestGarbageFrameCountedNotFatal(t *testing.T) {
	_, b, net, _ := channelFixture(t, false, false, false, false)
	// Inject raw junk straight into b's transport.
	hostA, err := net.Host("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := hostA.Send("b", []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.ctr.errors.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if b.ctr.errors.Value() == 0 {
		t.Error("garbage frame not counted")
	}
	// The firewall survives: a registration still works.
	if _, err := b.Register("vm", "system", "alive"); err != nil {
		t.Errorf("firewall dead after garbage: %v", err)
	}
}
