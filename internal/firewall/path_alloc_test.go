package firewall

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"tax/internal/briefcase"
	"tax/internal/identity"
)

// pathNode is a synchronous in-process transport: Send and SendOwned
// invoke the peer's handler on the caller's goroutine, so an entire
// multi-hop forwarding chain runs inside one function call and
// testing.AllocsPerRun can price it. Send makes the per-link defensive
// copy exactly like simnet; SendOwned aliases, exactly like simnet.
type pathNode struct {
	addr    string
	handler func(from string, payload []byte)
	peers   map[string]*pathNode
	// drop discards instead of delivering (after Send's copy), isolating
	// one stage of the chain for measurement.
	drop bool
	// tap observes the bytes each delivery hands to the peer.
	tap func(from, to string, payload []byte)

	sends, ownedSends int
}

func (n *pathNode) Addr() string                             { return n.addr }
func (n *pathNode) SetHandler(h func(from string, p []byte)) { n.handler = h }
func (n *pathNode) Close() error                             { return nil }

func (n *pathNode) Send(to string, payload []byte) error {
	n.sends++
	data := append([]byte(nil), payload...)
	return n.deliver(to, data)
}

func (n *pathNode) SendOwned(to string, payload []byte) error {
	n.ownedSends++
	return n.deliver(to, payload)
}

func (n *pathNode) deliver(to string, data []byte) error {
	if n.drop {
		return nil
	}
	if n.tap != nil {
		n.tap(n.addr, to, data)
	}
	if peer := n.peers[to]; peer != nil {
		peer.handler(n.addr, data)
	}
	return nil
}

// pathChain is the 3-hop fixture a -> b -> c -> d on synchronous
// transports: a originates, b and c relay, d delivers to dst.
type pathChain struct {
	nodes map[string]*pathNode
	fws   map[string]*Firewall
	src   *Registration
	dst   *Registration
}

func newPathChain(t *testing.T) *pathChain {
	t.Helper()
	trust := &identity.TrustStore{}
	names := []string{"a", "b", "c", "d"}
	next := map[string]string{"a": "b", "b": "c", "c": "d", "d": "d"}
	ch := &pathChain{nodes: make(map[string]*pathNode), fws: make(map[string]*Firewall)}
	for _, name := range names {
		ch.nodes[name] = &pathNode{addr: name, peers: ch.nodes}
	}
	for _, name := range names {
		hop := next[name]
		fw, err := New(Config{
			HostName:        name,
			Node:            ch.nodes[name],
			Trust:           trust,
			SystemPrincipal: "system",
			Relay:           name == "b" || name == "c",
			Resolve: func(host string, _ int) (string, error) {
				if host == name {
					return name, nil
				}
				return hop, nil
			},
		})
		if err != nil {
			t.Fatalf("firewall %s: %v", name, err)
		}
		t.Cleanup(func() { _ = fw.Close() })
		ch.fws[name] = fw
	}
	var err error
	if ch.src, err = ch.fws["a"].Register("vm", "system", "src"); err != nil {
		t.Fatalf("register src: %v", err)
	}
	if ch.dst, err = ch.fws["d"].Register("vm", "system", "dst"); err != nil {
		t.Fatalf("register dst: %v", err)
	}
	return ch
}

// pathBriefcase is the forwarded payload: body plus target, the shape
// the forwarding bench sends.
func pathBriefcase() *briefcase.Briefcase {
	bc := briefcase.New()
	bc.SetString("BODY", "crawl result 000042 padded to a plausible briefcase payload size for the mediation hot path")
	bc.SetString(briefcase.FolderSysTarget, "tacoma://d/system/dst")
	return bc
}

// TestForwardPathSingleEncodeSingleDecode drives one frame through the
// full 3-hop chain and proves the tentpole claim with two measurements:
//
//  1. Byte identity: the wire bytes on every link are identical, so no
//     relay re-encoded the payload — the one encode happened at a.
//  2. Allocation ceiling: a relay's whole inbound mediation costs fewer
//     allocations than a single lazy Decode of this frame, so no relay
//     decoded the payload — the one decode happens at d.
//
// Together: a 3-hop forwarded itinerary performs exactly one payload
// encode (origin) and one payload decode (final receiver).
func TestForwardPathSingleEncodeSingleDecode(t *testing.T) {
	ch := newPathChain(t)
	var wires [][]byte
	for _, n := range ch.nodes {
		n.tap = func(_, _ string, payload []byte) {
			wires = append(wires, append([]byte(nil), payload...))
		}
	}
	if err := ch.fws["a"].Send(ch.src.GlobalURI(), pathBriefcase()); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, ok := ch.dst.TryRecv()
	if !ok {
		t.Fatal("no delivery at d")
	}
	if body, _ := got.GetString("BODY"); body == "" {
		t.Fatal("delivered briefcase lost its body")
	}
	if len(wires) != 3 {
		t.Fatalf("frame crossed %d links, want 3", len(wires))
	}
	for i := 1; i < len(wires); i++ {
		if !bytes.Equal(wires[0], wires[i]) {
			t.Fatalf("link %d bytes differ from link 0: relays must forward verbatim", i)
		}
	}
	// Origin copies once onto the first link; relays hand the buffer on.
	if ch.nodes["a"].sends != 1 || ch.nodes["a"].ownedSends != 0 {
		t.Fatalf("origin made %d Send / %d SendOwned calls, want 1/0",
			ch.nodes["a"].sends, ch.nodes["a"].ownedSends)
	}
	for _, relay := range []string{"b", "c"} {
		n := ch.nodes[relay]
		if n.ownedSends != 1 || n.sends != 0 {
			t.Fatalf("relay %s made %d SendOwned / %d Send calls, want 1/0",
				relay, n.ownedSends, n.sends)
		}
	}

	// The allocation half of the proof: decode cost of this very frame,
	// versus a relay's whole inbound stage.
	frame := wires[0]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	decodeAllocs := testing.AllocsPerRun(200, func() { _, _ = briefcase.Decode(frame) })
	ch.nodes["b"].drop = true
	relayAllocs := testing.AllocsPerRun(200, func() { ch.fws["b"].cfg.Node.(*pathNode).handler("a", frame) })
	ch.nodes["b"].drop = false
	if relayAllocs >= decodeAllocs {
		t.Fatalf("relay stage allocates %.0f >= decode's %.0f: the relay cannot be header-only",
			relayAllocs, decodeAllocs)
	}
	t.Logf("relay stage %.0f allocs vs decode %.0f", relayAllocs, decodeAllocs)
}

// TestForwardPathStageAllocs pins the per-stage allocation budgets of
// the forwarded path: origin mediation (encode + link copy), relay
// mediation (header peeks + verbatim forward), and final delivery
// (single decode + route + mailbox). The exact stage numbers live in
// BENCH_hotpath.json's "path" section (written by taxbench, gated by
// taxbench -check); this test enforces ceilings so a regression fails
// here first, with a name, rather than in the bench diff.
func TestForwardPathStageAllocs(t *testing.T) {
	ch := newPathChain(t)
	var frame []byte
	ch.nodes["c"].tap = func(_, _ string, payload []byte) {
		frame = append([]byte(nil), payload...)
	}
	if err := ch.fws["a"].Send(ch.src.GlobalURI(), pathBriefcase()); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, ok := ch.dst.TryRecv(); !ok {
		t.Fatal("no delivery at d")
	}
	ch.nodes["c"].tap = nil

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 200

	// Origin: mediate and encode one send, copy onto the first link.
	ch.nodes["a"].drop = true
	bc := pathBriefcase()
	origin := testing.AllocsPerRun(runs, func() {
		if err := ch.fws["a"].Send(ch.src.GlobalURI(), bc); err != nil {
			t.Fatalf("origin send: %v", err)
		}
	})
	ch.nodes["a"].drop = false

	// Relay: full inbound mediation of the forwarded frame, headers only.
	ch.nodes["b"].drop = true
	relay := testing.AllocsPerRun(runs, func() { ch.fws["b"].cfg.Node.(*pathNode).handler("a", frame) })
	ch.nodes["b"].drop = false

	// Deliver: the final receiver's single decode, routing, and mailbox.
	deliver := testing.AllocsPerRun(runs, func() {
		ch.fws["d"].cfg.Node.(*pathNode).handler("c", frame)
		if _, ok := ch.dst.TryRecv(); !ok {
			t.Fatal("deliver stage produced no delivery")
		}
	})

	t.Logf("stage allocs: origin=%.0f relay=%.0f deliver=%.0f", origin, relay, deliver)
	// Ceilings, not exact pins: the exact values are recorded (and
	// double-run-verified) in BENCH_hotpath.json. A relay is the hot
	// multiplier — every extra hop pays it — so its budget is the tight
	// one.
	if relay > 2 {
		t.Errorf("relay stage allocates %.0f, budget 2: header-only forwarding regressed", relay)
	}
	// 3, and one more under the race detector, where sync.Pool drops
	// encode buffers at random.
	if origin > 4 {
		t.Errorf("origin stage allocates %.0f, budget 4", origin)
	}
	if deliver > 40 {
		t.Errorf("deliver stage allocates %.0f, budget 40", deliver)
	}
}

// allocBytesPerOp prices f in heap bytes per call, over n calls with the
// collector off. f receives the call index so each call can take its own
// prepared input.
func allocBytesPerOp(n int, f func(i int)) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestCoreSignatureAllocBudget pins the allocation side of manifest
// signing for a 64 KiB core: neither the arrival's VerifyCore on a just
// decoded transfer (the core is hashed in place, from its wire region)
// nor a SignCore on a stamped briefcase (nothing is hashed) may copy the
// core. The byte-signing code this replaced paid three 64 KiB copies per
// call; the budget is 1 KiB.
func TestCoreSignatureAllocBudget(t *testing.T) {
	signer, err := identity.NewPrincipal("system")
	if err != nil {
		t.Fatal(err)
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(signer, identity.System)
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderCode).Append([]byte("tour"), make([]byte, 64<<10))
	bc.Ensure(briefcase.FolderResults).Append(make([]byte, 200))
	bc.SetString(FolderKind, KindTransfer)
	SignCore(bc, signer)
	wire := bc.Encode()

	const runs = 64
	arrivals := make([]*briefcase.Briefcase, runs)
	for i := range arrivals {
		if arrivals[i], err = briefcase.Decode(wire); err != nil {
			t.Fatal(err)
		}
	}
	verify := allocBytesPerOp(runs, func(i int) {
		if _, err := VerifyCore(arrivals[i], trust, identity.Untrusted); err != nil {
			t.Fatal(err)
		}
	})
	sign := allocBytesPerOp(runs, func(int) { SignCore(bc, signer) })
	t.Logf("bytes/op: VerifyCore on a fresh decode %.0f, SignCore on a stamped briefcase %.0f", verify, sign)
	if verify >= 1024 {
		t.Errorf("VerifyCore on a freshly decoded 64 KiB transfer allocates %.0f B, budget 1 KiB", verify)
	}
	if sign >= 1024 {
		t.Errorf("SignCore on a stamped 64 KiB briefcase allocates %.0f B, budget 1 KiB", sign)
	}
}
