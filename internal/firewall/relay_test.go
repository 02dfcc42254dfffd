package firewall

import (
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/identity"
	"tax/internal/simnet"
)

// relayChain builds a line topology a — b — c — d: every host's Resolve
// maps a distant URI host to the neighbor one step closer, and the
// interior hosts (b, c) relay. configure, when non-nil, adjusts each
// host's Config before New (hostName tells it which host).
func relayChain(t *testing.T, configure func(hostName string, cfg *Config)) (map[string]*Firewall, *simnet.Network, *identity.TrustStore) {
	t.Helper()
	hosts := []string{"a", "b", "c", "d"}
	// nextHop[h] maps "from host h, to reach host X send to nextHop[h][X]".
	nextHop := map[string]map[string]string{
		"a": {"b": "b", "c": "b", "d": "b"},
		"b": {"a": "a", "c": "c", "d": "c"},
		"c": {"a": "b", "b": "b", "d": "d"},
		"d": {"a": "c", "b": "c", "c": "c"},
	}
	net := simnet.New(simnet.LAN100)
	t.Cleanup(func() { _ = net.Close() })
	trust := &identity.TrustStore{}
	sys, err := identity.NewPrincipal("system")
	if err != nil {
		t.Fatal(err)
	}
	trust.AddPrincipal(sys, identity.System)
	fws := make(map[string]*Firewall, len(hosts))
	for _, name := range hosts {
		h, err := net.AddHost(name)
		if err != nil {
			t.Fatal(err)
		}
		hops := nextHop[name]
		cfg := Config{
			HostName:        name,
			Node:            h,
			Trust:           trust,
			SystemPrincipal: "system",
			QueueTimeout:    300 * time.Millisecond,
			Relay:           name == "b" || name == "c",
			Resolve: func(host string, _ int) (string, error) {
				if next, ok := hops[host]; ok {
					return next, nil
				}
				return host, nil
			},
		}
		if configure != nil {
			configure(name, &cfg)
		}
		fw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fw.Close() })
		fws[name] = fw
	}
	return fws, net, trust
}

// TestRelayThreeHopDelivery proves a frame sent from a to d crosses the
// two relays and arrives intact, without a or d knowing the route.
func TestRelayThreeHopDelivery(t *testing.T) {
	fws, _, _ := relayChain(t, nil)
	src, err := fws["a"].Register("vm", "alice", "src")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := fws["d"].Register("vm", "alice", "dst")
	if err != nil {
		t.Fatal(err)
	}
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://d/alice/dst")
	bc.SetString("BODY", "across three hops")
	bc.Ensure("DATA").Append(make([]byte, 2048))
	if err := fws["a"].Send(src.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := got.GetString("BODY"); body != "across three hops" {
		t.Fatalf("BODY = %q", body)
	}
	df, err := got.Folder("DATA")
	if err != nil || df.Size() != 2048 {
		t.Fatalf("DATA folder damaged in transit: %v", err)
	}
	// A relay bumps fw.relayed after it hands the frame on, so the
	// delivery can beat the count: wait for it, then pin it.
	for _, relay := range []string{"b", "c"} {
		deadline := time.Now().Add(2 * time.Second)
		for fws[relay].ctr.relayed.Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := fws[relay].ctr.relayed.Value(); n != 1 {
			t.Errorf("relay %s: fw.relayed = %d, want 1", relay, n)
		}
		if n := fws[relay].ctr.delivered.Value(); n != 0 {
			t.Errorf("relay %s delivered locally: %d", relay, n)
		}
	}
}

// TestRelayForwardsVerbatim captures the exact bytes leaving the origin
// and arriving at the final hop: with no re-sealing relays, forwarding
// must be byte-identical — the zero-copy invariant at the wire level.
func TestRelayForwardsVerbatim(t *testing.T) {
	var sentFromA, arrivedAtD []byte
	fws, net, _ := relayChain(t, nil)
	net.SetTap(func(from, to string, payload []byte) {
		if from == "a" {
			sentFromA = append([]byte(nil), payload...)
		}
		if to == "d" {
			arrivedAtD = append([]byte(nil), payload...)
		}
	})
	src, _ := fws["a"].Register("vm", "alice", "src")
	dst, _ := fws["d"].Register("vm", "alice", "dst")
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://d/alice/dst")
	bc.SetString("BODY", "verbatim")
	if err := fws["a"].Send(src.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Recv(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(sentFromA) == 0 || len(arrivedAtD) == 0 {
		t.Fatal("tap saw no traffic")
	}
	if string(sentFromA) != string(arrivedAtD) {
		t.Fatalf("relayed frame mutated in flight:\norigin: %x\nfinal:  %x", sentFromA, arrivedAtD)
	}
}

// TestRelayResealsWithChannelAuth runs the chain with every host signing
// and verifying frames: each relay must verify the previous hop's seal
// and re-seal with its own principal, and the payload must still arrive
// intact.
func TestRelayResealsWithChannelAuth(t *testing.T) {
	signers := map[string]*identity.Principal{}
	fws, _, _ := relayChain(t, func(hostName string, cfg *Config) {
		p, err := identity.NewPrincipal("fw-" + hostName)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trust.AddPrincipal(p, identity.Trusted)
		cfg.ChannelSigner = p
		cfg.ChannelAuth = true
		signers[hostName] = p
	})
	src, _ := fws["a"].Register("vm", "alice", "src")
	dst, _ := fws["d"].Register("vm", "alice", "dst")
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://d/alice/dst")
	bc.SetString("BODY", "sealed per hop")
	if err := fws["a"].Send(src.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := got.GetString("BODY"); body != "sealed per hop" {
		t.Fatalf("BODY = %q", body)
	}
	if n := fws["b"].ctr.authFailures.Value() + fws["c"].ctr.authFailures.Value() + fws["d"].ctr.authFailures.Value(); n != 0 {
		t.Fatalf("auth failures along the sealed chain: %d", n)
	}
}

// TestRelayRejectsUnsealedWithChannelAuth: a relay that requires channel
// auth must drop unsealed third-party frames, not forward them.
func TestRelayRejectsUnsealedWithChannelAuth(t *testing.T) {
	fws, _, _ := relayChain(t, func(hostName string, cfg *Config) {
		if hostName == "b" {
			cfg.ChannelAuth = true
		}
	})
	src, _ := fws["a"].Register("vm", "alice", "src")
	dst, _ := fws["d"].Register("vm", "alice", "dst")
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://d/alice/dst")
	if err := fws["a"].Send(src.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Recv(300 * time.Millisecond); err == nil {
		t.Fatal("unsealed frame crossed a ChannelAuth relay")
	}
	if n := fws["b"].ctr.authFailures.Value(); n != 1 {
		t.Fatalf("relay b auth failures = %d, want 1", n)
	}
}

// TestRelayContainerForwarding sends a burst of batched frames from a to
// d: the relays must forward the containers without unpacking them.
func TestRelayContainerForwarding(t *testing.T) {
	fws, _, _ := relayChain(t, func(hostName string, cfg *Config) {
		if hostName == "a" {
			cfg.Batch = &BatchConfig{MaxFrames: 8, FlushEvery: -1}
		}
	})
	src, _ := fws["a"].Register("vm", "alice", "src")
	dst, _ := fws["d"].Register("vm", "alice", "dst")
	const msgs = 16
	for i := 0; i < msgs; i++ {
		bc := briefcase.New()
		bc.SetString(briefcase.FolderSysTarget, "tacoma://d/alice/dst")
		bc.SetInt("N", int64(i))
		if err := fws["a"].Send(src.GlobalURI(), bc); err != nil {
			t.Fatal(err)
		}
	}
	if err := fws["a"].FlushBatches(); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := 0; i < msgs; i++ {
		got, err := dst.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		n, _ := got.GetInt("N")
		seen[n] = true
	}
	if len(seen) != msgs {
		t.Fatalf("received %d distinct messages, want %d", len(seen), msgs)
	}
	for _, relay := range []string{"b", "c"} {
		fw := fws[relay]
		if n := fw.ctr.relayContainers.Value(); n != 2 {
			t.Errorf("relay %s: fw.relay_containers = %d, want 2", relay, n)
		}
		if n := fw.ctr.relayed.Value(); n != msgs {
			t.Errorf("relay %s: fw.relayed = %d, want %d", relay, n, msgs)
		}
		// The defining property: the relay never unpacked a container.
		if n := fw.ctr.batchRecv.Value(); n != 0 {
			t.Errorf("relay %s unpacked %d frames from containers", relay, n)
		}
	}
}

// TestRelayMixedContainerFallsBack batches frames for the relay itself
// together with frames for a farther host: the container cannot be
// forwarded verbatim, so the relay unpacks, delivers its own frame, and
// relays the rest.
func TestRelayMixedContainerFallsBack(t *testing.T) {
	fws, _, _ := relayChain(t, func(hostName string, cfg *Config) {
		if hostName == "a" {
			cfg.Batch = &BatchConfig{MaxFrames: 4, FlushEvery: -1}
		}
	})
	src, _ := fws["a"].Register("vm", "alice", "src")
	onB, _ := fws["b"].Register("vm", "alice", "onb")
	dst, _ := fws["d"].Register("vm", "alice", "dst")
	targets := []string{
		"tacoma://b/alice/onb",
		"tacoma://d/alice/dst",
		"tacoma://d/alice/dst",
		"tacoma://b/alice/onb",
	}
	for i, target := range targets {
		bc := briefcase.New()
		bc.SetString(briefcase.FolderSysTarget, target)
		bc.SetInt("N", int64(i))
		if err := fws["a"].Send(src.GlobalURI(), bc); err != nil {
			t.Fatal(err)
		}
	}
	if err := fws["a"].FlushBatches(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := onB.Recv(2 * time.Second); err != nil {
			t.Fatalf("local recv on b: %v", err)
		}
		if _, err := dst.Recv(2 * time.Second); err != nil {
			t.Fatalf("relayed recv on d: %v", err)
		}
	}
	if n := fws["b"].ctr.relayContainers.Value(); n != 0 {
		t.Errorf("mixed container forwarded verbatim (%d)", n)
	}
	if n := fws["b"].ctr.relayed.Value(); n != 2 {
		t.Errorf("relay b: fw.relayed = %d, want 2", n)
	}
}

// TestRelayOffDropsThirdParty pins the pre-relay behavior: without
// Config.Relay the interior host drops the frame and audits it.
func TestRelayOffDropsThirdParty(t *testing.T) {
	fws, _, _ := relayChain(t, func(hostName string, cfg *Config) {
		cfg.Relay = false
	})
	src, _ := fws["a"].Register("vm", "alice", "src")
	dst, _ := fws["d"].Register("vm", "alice", "dst")
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://d/alice/dst")
	if err := fws["a"].Send(src.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Recv(300 * time.Millisecond); err == nil {
		t.Fatal("frame crossed a non-relay host")
	}
	if n := fws["b"].ctr.errors.Value(); n == 0 {
		t.Error("dropped third-party frame not counted")
	}
}

// TestRelaySplitHorizon: a route that sends the frame back where it came
// from is refused.
func TestRelaySplitHorizon(t *testing.T) {
	fws, _, _ := relayChain(t, func(hostName string, cfg *Config) {
		if hostName == "b" {
			cfg.Resolve = func(host string, _ int) (string, error) { return "a", nil }
		}
	})
	src, _ := fws["a"].Register("vm", "alice", "src")
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://d/alice/dst")
	if err := fws["a"].Send(src.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for fws["b"].ctr.errors.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := fws["b"].ctr.errors.Value(); n == 0 {
		t.Fatal("relay loop not detected")
	}
	if n := fws["b"].ctr.relayed.Value(); n != 0 {
		t.Fatalf("looping frame was relayed %d times", n)
	}
}
