package firewall

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/simnet"
	"tax/internal/vclock"
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

// copyingNode hides a transport's SendOwned: what is left is a Node
// whose Send is done with the bytes when it returns, like TCPNode.
type copyingNode struct{ simnet.Node }

// pathChain is the 3-hop fixture a -> b -> c -> d on synchronous
// transports: a originates, b and c relay, d delivers to dst.
type pathChain struct {
	nodes map[string]*pathNode
	fws   map[string]*Firewall
	src   *Registration
	dst   *Registration
}

// newPathChain builds the chain; mutate, when set, edits each host's
// Config before its firewall starts.
func newPathChain(t *testing.T, mutate func(c *Config)) *pathChain {
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
		cfg := Config{
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
		}
		if mutate != nil {
			mutate(&cfg)
		}
		fw, err := New(cfg)
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
// full 3-hop chain: the wire bytes on every link are identical, so no
// relay re-encoded the payload — the one encode happened at a — and
// the origin copies once onto its link while each relay hands the
// buffer on. That no relay decodes the payload (a relay stage costs
// fewer allocations than one Decode of the frame) is
// TestForwardPathStageAllocs' rule.
func TestForwardPathSingleEncodeSingleDecode(t *testing.T) {
	ch := newPathChain(t, nil)
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
}

// TestForwardPathStageAllocs pins the per-stage allocation budgets of
// the forwarded path: origin mediation (encode + link copy), relay
// mediation (header peeks + verbatim forward), final delivery (single
// decode + route + mailbox), and one lazy Decode of the same frame, the
// bound a header-only relay must stay under. The counts are exact with
// the collector paused; under the race detector, where sync.Pool drops
// Puts at random, only the ceilings hold.
func TestForwardPathStageAllocs(t *testing.T) {
	ch := newPathChain(t, nil)
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

	decode := testing.AllocsPerRun(runs, func() { _, _ = briefcase.Decode(frame) })

	t.Logf("stage allocs: origin=%.0f relay=%.0f deliver=%.0f decode=%.0f", origin, relay, deliver, decode)
	if relay >= decode {
		t.Errorf("relay stage allocates %.0f >= decode's %.0f: the relay cannot be header-only", relay, decode)
	}
	// origin: the link copy; _SENDER aliases the registration's stamp
	// and _TARGET is read in place. relay: its peek reads _TARGET in
	// place and the intern table parses it, so it allocates nothing — a
	// relay is the hot multiplier, every extra hop pays it. decode: the
	// briefcase and its folder chunk; the folder list is the briefcase's
	// inline backing and the names come from the names table. deliver:
	// one decode, routing into route's one-slot match buffer and the
	// mailbox hand-off, with _TARGET and _SENDER interned, not copied.
	// Under the race detector the origin may pay one more for an encode
	// buffer the pool dropped.
	stages := []struct {
		name         string
		got          float64
		want, budget float64
	}{
		{"origin", origin, 1, 2},
		{"relay", relay, 0, 0},
		{"deliver", deliver, 2, 2},
		{"decode", decode, 2, 2},
	}
	for _, s := range stages {
		switch {
		case raceBuild && s.got > s.budget:
			t.Errorf("%s stage allocates %.0f, budget %.0f", s.name, s.got, s.budget)
		case !raceBuild && s.got != s.want:
			t.Errorf("%s stage allocates %.0f, want exactly %.0f", s.name, s.got, s.want)
		}
	}
}

// TestPolicySendAllocs pins what the policy gate adds to a send: local,
// remote and batched-remote sends from a tenant (the system principal
// bypasses the gate) cost 0, 1 and 0 allocations, with no engine and
// with an AllowAll engine on the sender alike. Remote sends are dropped
// at a's transport, after the link copy, so the count prices the
// sender's work alone.
func TestPolicySendAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for path, want := range map[string]float64{"local": 0, "remote": 1, "remote-batched": 0} {
		var allocs [2]float64 // no engine, AllowAll
		for i, engine := range []bool{false, true} {
			ch := newPathChain(t, func(c *Config) {
				if c.HostName != "a" {
					return
				}
				if engine {
					c.Policy = policy.New(vclock.NewVirtual(), policy.AllowAll(), policy.Quota{})
				}
				if path == "remote-batched" {
					c.Batch = &BatchConfig{MaxFrames: 16, MaxBytes: 1 << 20, MaxDelay: time.Hour, FlushEvery: -1}
				}
			})
			a := ch.fws["a"]
			src, err := a.Register("vm", "tenant", "src")
			if err != nil {
				t.Fatal(err)
			}
			local, err := a.Register("vm", "tenant", "dst")
			if err != nil {
				t.Fatal(err)
			}
			target, inbox := "tacoma://d/system/dst", ch.dst
			if path == "local" {
				target, inbox = "tenant/dst", local
			}
			bc := briefcase.New()
			bc.SetString("BODY", "policy gate pricing payload: a plausible mid-crawl status line of ordinary size")
			bc.SetString(briefcase.FolderSysTarget, target)
			// Warm the path end to end: folder writes, bucket resolution,
			// encoder pools and, batched, the link's container.
			for range 32 {
				if err := a.Send(src.GlobalURI(), bc); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.FlushBatches(); err != nil {
				t.Fatal(err)
			}
			for range 32 {
				if _, ok := inbox.TryRecv(); !ok {
					t.Fatalf("%s warm-up send was not delivered", path)
				}
			}
			ch.nodes["a"].drop = path != "local"
			allocs[i] = testing.AllocsPerRun(200, func() {
				if err := a.Send(src.GlobalURI(), bc); err != nil {
					t.Fatal(err)
				}
				if path == "local" {
					if _, ok := inbox.TryRecv(); !ok {
						t.Fatal("local send produced no delivery")
					}
				}
			})
		}
		off, on := allocs[0], allocs[1]
		t.Logf("%s send: %.0f allocs with no engine, %.0f with AllowAll", path, off, on)
		if off != want || on != want {
			t.Errorf("%s send allocates %.0f with no engine and %.0f with AllowAll (the gate's delta %+.0f), want %.0f and a delta of 0",
				path, off, on, on-off, want)
		}
	}
}

// TestFreshSenderDeliverAllocs pins the intern table's admission rule:
// a stream of frames whose _SENDER is never seen twice, like a touring
// agent's new instance at every hop, costs no more per delivery than
// before addresses were interned — 9, the deliver stage's count when
// every read of _SENDER and _TARGET copied. Admitting on first sighting
// would cost each such frame an entry.
func TestFreshSenderDeliverAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	ch := newPathChain(t, nil)
	const runs = 200
	frames := make([][]byte, runs+1) // AllocsPerRun calls once more to warm up
	for i := range frames {
		bc := pathBriefcase()
		bc.SetString(briefcase.FolderSysSender, "tacoma://a/system/src:"+strconv.FormatInt(int64(1e6+i), 16))
		frames[i] = bc.Encode()
	}
	for range 2 { // _TARGET is a hot address, admitted before the count
		ch.fws["d"].cfg.Node.(*pathNode).handler("c", pathBriefcase().Encode())
		if _, ok := ch.dst.TryRecv(); !ok {
			t.Fatal("warm-up produced no delivery")
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := 0
	fresh := testing.AllocsPerRun(runs, func() {
		ch.fws["d"].cfg.Node.(*pathNode).handler("c", frames[i])
		i++
		if _, ok := ch.dst.TryRecv(); !ok {
			t.Fatal("no delivery")
		}
	})
	t.Logf("deliver with a never-seen sender: %.2f allocs", fresh)
	if fresh > 9 {
		t.Errorf("a never-seen sender costs %.2f allocations a delivery, budget 9", fresh)
	}
}

// TestBatchedPathByteBudget prices the batched forwarded path in heap
// bytes: a batches 16 frames of 4 KiB bodies per container, b and c
// relay the container whole, d unpacks and delivers. The container is
// the link queue's own buffer, so a frame's bytes are allocated once —
// its share of the container — beside d's decode: at most 1.25 × the
// encoded frame + 1 KiB per delivered frame, where the assembly this
// replaced (reference_test.go) paid about 7×. A zero-copy transport
// takes every flush by ownership. A copying one (TCPNode's shape) pays
// Send's copy instead, and the buffer goes back to the link: no flush
// allocates a container once warm.
func TestBatchedPathByteBudget(t *testing.T) {
	for _, name := range []string{"owned", "copying"} {
		copying := name == "copying"
		t.Run(name, func(t *testing.T) {
			const batch, batches = 16, 32
			ch := newPathChain(t, func(c *Config) {
				if c.HostName != "a" {
					return
				}
				c.Batch = &BatchConfig{MaxFrames: batch, MaxBytes: 1 << 20, MaxDelay: time.Hour, FlushEvery: -1}
				if copying {
					c.Node = copyingNode{c.Node}
				}
			})
			bc := briefcase.New()
			bc.Ensure("BODY").Append(make([]byte, 4<<10))
			bc.SetString(briefcase.FolderSysTarget, "tacoma://d/system/dst")
			flush := func(int) {
				for i := 0; i < batch; i++ {
					if err := ch.fws["a"].Send(ch.src.GlobalURI(), bc); err != nil {
						t.Fatalf("send: %v", err)
					}
				}
				for i := 0; i < batch; i++ {
					if _, ok := ch.dst.TryRecv(); !ok {
						t.Fatalf("frame %d of the batch was not delivered", i)
					}
				}
				// An idle flush must leave a recycled buffer with its link.
				if err := ch.fws["a"].FlushBatches(); err != nil {
					t.Fatalf("idle flush: %v", err)
				}
			}
			var frameLen int
			ch.nodes["c"].tap = func(_, _ string, container []byte) {
				walkContainer(container, func(frame []byte) bool { frameLen = len(frame); return false })
			}
			flush(0) // the link learns its buffer size
			flush(0)
			ch.nodes["c"].tap = nil
			lb := ch.fws["a"].batch.link("b")
			var warm *byte
			if copying {
				warm = &lb.buf[0]
			}

			perFrame := allocBytesPerOp(batches, flush) / batch
			t.Logf("%.0f B per delivered frame of %d encoded bytes", perFrame, frameLen)
			if budget := 1.25*float64(frameLen) + 1024; perFrame > budget && !raceBuild {
				t.Errorf("batched path allocates %.0f B per delivered frame, budget %.0f", perFrame, budget)
			}
			a, flushes := ch.nodes["a"], batches+2
			if copying {
				if a.sends != flushes || a.ownedSends != 0 {
					t.Errorf("a made %d Send / %d SendOwned calls, want %d/0", a.sends, a.ownedSends, flushes)
				}
				if &lb.buf[0] != warm {
					t.Error("a flush on a copying transport allocated a new container")
				}
			} else if a.ownedSends != flushes || a.sends != 0 {
				t.Errorf("a made %d SendOwned / %d Send calls, want %d/0", a.ownedSends, a.sends, flushes)
			}
		})
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
