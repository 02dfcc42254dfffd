package firewall

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/identity"
)

// memoState is what a memo holds, by identity: the retained image under
// each signature, and the byte count. Two equal states are the same memo.
func memoState(m *coreMemo) (map[string]*briefcase.CoreImage, int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	entries := make(map[string]*briefcase.CoreImage, len(m.entries))
	for k, v := range m.entries {
		entries[k] = v
	}
	return entries, m.size
}

// sameMemo reports whether two memoStates are the same.
func sameMemo(a map[string]*briefcase.CoreImage, asize int, b map[string]*briefcase.CoreImage, bsize int) bool {
	if len(a) != len(b) || asize != bsize {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// coreAndSignature is what a memo hit depends on: the core, by its
// reference encoding, and the signature elements.
func coreAndSignature(bc *briefcase.Briefcase) string {
	sig, _ := bc.Folder(briefcase.FolderSysSignature)
	return referenceCore(bc) + "\x00" + strings.Join(sig.Strings(), "\x00")
}

// TestCoreMemoTamperWall replays the tamper table into a RequireAuth
// firewall whose digest memo already holds the untampered core under the
// same signature. Every case is refused as it is without the memo — the
// same typed error, fw.core_verify{fail} up by one, nothing delivered —
// and leaves the memo as it was. A case that changes the core or the
// signature misses the memo and is hashed; one that changes only who
// vouches for identical bytes (the principal swapped, the signer removed
// or its key rotated) takes the digest from the memo, and the trust
// store, read live, refuses it all the same.
func TestCoreMemoTamperWall(t *testing.T) {
	for _, tc := range coreTampers {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t)
			fx.config = func(c *Config) { c.RequireAuth = true }
			fx.addHost("h1")
			fx.addHost("h2")
			fw1, fw2 := fx.sites["h1"].fw, fx.sites["h2"].fw
			sender, _ := fw1.Register("vm_go", "alice", "sender")
			vm2, _ := fw2.Register("vm_go", "system", "vm_go")

			// Control: the first arrival is hashed and fills the memo, the
			// second is answered from it.
			bc := signedTransfer(fx.alice, "the body alice signed")
			for i := 0; i < 2; i++ {
				if err := fw1.Send(sender.GlobalURI(), bc.Clone()); err != nil {
					t.Fatal(err)
				}
				if _, err := vm2.Recv(2 * time.Second); err != nil {
					t.Fatalf("control transfer %d not delivered: %v", i, err)
				}
			}
			if n := fw2.ctr.coreHashed.Value(); n != 1 {
				t.Fatalf("control: fw.core_hashed = %d, want 1", n)
			}
			entries, size := memoState(fw2.memo)
			if len(entries) != 1 {
				t.Fatalf("control: memo holds %d entries, want 1", len(entries))
			}
			signed := coreAndSignature(bc)

			tc.apply(t, fx.alice, fx.trust, bc)
			wantHashed := int64(1)
			if coreAndSignature(bc) == signed {
				wantHashed = 0
			}

			if err := fw1.Send(sender.GlobalURI(), bc.Clone()); err != nil {
				t.Fatal(err)
			}
			rep, err := sender.Recv(2 * time.Second)
			if err != nil {
				t.Fatalf("no rejection report: %v", err)
			}
			if reason, _ := rep.GetString(briefcase.FolderSysError); Kind(rep) != KindError || !strings.Contains(reason, tc.want.Error()) {
				t.Errorf("report kind %q reason %q, want an error naming %q", Kind(rep), reason, tc.want)
			}
			if n := fw2.ctr.coreVerifyFail.Value(); n != 1 {
				t.Errorf("fw.core_verify{fail} = %d, want 1", n)
			}
			if n := fw2.ctr.coreHashed.Value() - 1; n != wantHashed {
				t.Errorf("the tampered arrival moved fw.core_hashed by %d, want %d", n, wantHashed)
			}
			if e, s := memoState(fw2.memo); !sameMemo(e, s, entries, size) {
				t.Errorf("a refusal changed the memo: %d entries, %d B (was %d, %d B)", len(e), s, len(entries), size)
			}
			if _, ok := vm2.TryRecv(); ok {
				t.Error("tampered transfer delivered")
			}
		})
	}
}

// arrival decodes a fresh copy of wire, as a frame off the transport is.
func arrival(t testing.TB, wire []byte) *briefcase.Briefcase {
	t.Helper()
	bc, err := briefcase.Decode(append([]byte(nil), wire...))
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

// TestCoreMemoFillsOnlyOnSuccess: an arrival that is refused — an
// unknown signer, a signer below the level asked for — adds nothing to
// the memo; the same core verified by a known signer does.
func TestCoreMemoFillsOnlyOnSuccess(t *testing.T) {
	fx := newFixture(t, "h1")
	var memo coreMemo
	if _, _, _, err := verifyCore(arrival(t, signedTransfer(fx.mal, "body").Encode()), fx.trust, identity.Untrusted, &memo); !errors.Is(err, identity.ErrUnknownPrincipal) {
		t.Fatalf("unknown signer: err = %v", err)
	}
	wire := signedTransfer(fx.alice, "body").Encode()
	if _, _, _, err := verifyCore(arrival(t, wire), fx.trust, identity.System, &memo); !errors.Is(err, identity.ErrInsufficientTrust) {
		t.Fatalf("Trusted signer asked for System: err = %v", err)
	}
	if entries, size := memoState(&memo); len(entries) != 0 || size != 0 {
		t.Fatalf("refusals filled the memo: %d entries, %d B", len(entries), size)
	}
	if _, _, hashed, err := verifyCore(arrival(t, wire), fx.trust, identity.Trusted, &memo); err != nil || !hashed {
		t.Fatalf("first success: hashed %v, err %v", hashed, err)
	}
	if entries, _ := memoState(&memo); len(entries) != 1 {
		t.Fatalf("a success left %d memo entries, want 1", len(entries))
	}
	if who, _, hashed, err := verifyCore(arrival(t, wire), fx.trust, identity.Trusted, &memo); err != nil || hashed || who != "alice" {
		t.Fatalf("second arrival: %q, hashed %v, err %v; want alice from the memo", who, hashed, err)
	}
}

// TestCoreMemoLoadedCoreHashes: a core whose folder has been loaded into
// elements has no wire region left to compare, so it is hashed even when
// the memo holds the very same bytes — and still verifies.
func TestCoreMemoLoadedCoreHashes(t *testing.T) {
	fx := newFixture(t, "h1")
	wire := signedTransfer(fx.alice, "body").Encode()
	var memo coreMemo
	if _, _, _, err := verifyCore(arrival(t, wire), fx.trust, identity.Untrusted, &memo); err != nil {
		t.Fatal(err)
	}
	bc := arrival(t, wire)
	code, _ := bc.Folder(briefcase.FolderCode)
	_ = code.Strings() // loads the folder; its bytes are unchanged
	if who, _, hashed, err := verifyCore(bc, fx.trust, identity.Untrusted, &memo); err != nil || !hashed || who != "alice" {
		t.Errorf("loaded core: %q, hashed %v, err %v; want alice, hashed", who, hashed, err)
	}
}

// TestCoreMemoCopiesTheCore: the memo keeps its own copy of a core, so a
// transport that reuses the frame's buffer for the next frame cannot
// change what the memo compares against. Here the buffer a verified core
// was decoded from is overwritten with a tampered core of the same
// length, which then arrives: it is hashed and refused.
func TestCoreMemoCopiesTheCore(t *testing.T) {
	fx := newFixture(t, "h1")
	signed := briefcase.New()
	signed.Ensure(briefcase.FolderCode).AppendString("prog", "the body alice signed")
	SignCore(signed, fx.alice)
	wire := signed.Encode()
	flipByte(t, signed, briefcase.FolderCode, 1)
	bad := signed.Encode()
	if len(bad) != len(wire) {
		t.Fatalf("tampered wire is %d bytes, the signed one %d", len(bad), len(wire))
	}
	buf := append([]byte(nil), wire...)
	bc, err := briefcase.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	var memo coreMemo
	if _, _, _, err := verifyCore(bc, fx.trust, identity.Untrusted, &memo); err != nil {
		t.Fatal(err)
	}
	copy(buf, bad)
	if _, _, hashed, err := verifyCore(arrival(t, bad), fx.trust, identity.Untrusted, &memo); !errors.Is(err, identity.ErrBadSignature) || !hashed {
		t.Errorf("tampered core in a reused buffer: hashed %v, err %v; want hashed and refused", hashed, err)
	}
}

// TestCoreMemoBudget: 200 distinct 64 KiB cores pass through one memo,
// whose retained bytes never exceed the budget and always equal what its
// entries hold. The last core is the one certainly still retained.
func TestCoreMemoBudget(t *testing.T) {
	fx := newFixture(t, "h1")
	var memo coreMemo
	body := make([]byte, 64<<10)
	var last []byte
	for i := 0; i < 200; i++ {
		body[0], body[1] = byte(i), byte(i>>8)
		bc := briefcase.New()
		bc.Ensure(briefcase.FolderCode).Append(body)
		SignCore(bc, fx.alice)
		last = bc.Encode()
		if _, _, _, err := verifyCore(arrival(t, last), fx.trust, identity.Untrusted, &memo); err != nil {
			t.Fatal(err)
		}
		entries, size := memoState(&memo)
		held := 0
		for _, img := range entries {
			held += img.Size()
		}
		if size > coreMemoBudget || size != held {
			t.Fatalf("after %d cores: memo counts %d B, holds %d B, budget %d", i+1, size, held, coreMemoBudget)
		}
	}
	if _, _, hashed, err := verifyCore(arrival(t, last), fx.trust, identity.Untrusted, &memo); err != nil || hashed {
		t.Errorf("the newest core: hashed %v, err %v; want it from the memo", hashed, err)
	}
}

// TestCoreMemoConcurrentArrivals sends eight arrivals of one core into a
// RequireAuth firewall at once (run it under -race): every one is
// delivered, and the memo ends holding that one core once.
func TestCoreMemoConcurrentArrivals(t *testing.T) {
	fx := newFixture(t)
	fx.config = func(c *Config) { c.RequireAuth = true }
	fw := fx.addHost("h2").fw
	vm, _ := fw.Register("vm_go", "system", "vm_go")
	wire := signedTransfer(fx.alice, strings.Repeat("body ", 1<<12)).Encode()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fw.handleInbound("h1", append([]byte(nil), wire...))
		}()
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if _, err := vm.Recv(2 * time.Second); err != nil {
			t.Fatalf("arrival %d not delivered: %v", i, err)
		}
	}
	if n := fw.ctr.coreVerifyFail.Value(); n != 0 {
		t.Errorf("fw.core_verify{fail} = %d", n)
	}
	hashed := fw.ctr.coreHashed.Value()
	if hashed < 1 || hashed > 8 {
		t.Errorf("fw.core_hashed = %d, want between 1 and 8", hashed)
	}
	entries, size := memoState(fw.memo)
	if len(entries) != 1 {
		t.Fatalf("memo holds %d entries, want 1", len(entries))
	}
	for _, img := range entries {
		if img.Size() != size {
			t.Errorf("memo counts %d B, its entry holds %d B", size, img.Size())
		}
	}
	fw.handleInbound("h1", append([]byte(nil), wire...))
	if _, err := vm.Recv(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := fw.ctr.coreHashed.Value(); n != hashed {
		t.Errorf("a ninth arrival was hashed (fw.core_hashed %d -> %d)", hashed, n)
	}
}

// TestCoreMemoCrashWipe: a crash empties the memo with the rest of the
// volatile state, so the next arrival of a known core is hashed again.
func TestCoreMemoCrashWipe(t *testing.T) {
	fx := newFixture(t)
	fx.config = func(c *Config) { c.RequireAuth = true }
	fw := fx.addHost("h2").fw
	wire := signedTransfer(fx.alice, "body").Encode()
	vm, _ := fw.Register("vm_go", "system", "vm_go")
	arrive := func() {
		t.Helper()
		fw.handleInbound("h1", append([]byte(nil), wire...))
		if _, err := vm.Recv(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	arrive()
	arrive()
	if n := fw.ctr.coreHashed.Value(); n != 1 {
		t.Fatalf("before the crash: fw.core_hashed = %d, want 1", n)
	}
	fw.CrashWipe()
	if entries, size := memoState(fw.memo); len(entries) != 0 || size != 0 {
		t.Fatalf("CrashWipe left %d memo entries, %d B", len(entries), size)
	}
	vm, _ = fw.Register("vm_go", "system", "vm_go") // the crash killed the first
	arrive()
	arrive()
	if n := fw.ctr.coreHashed.Value(); n != 2 {
		t.Errorf("after the crash: fw.core_hashed = %d, want 2", n)
	}
}

// TestCoreMemoArrivalAllocs pins what the memo spares an arrival's
// signature check on a freshly decoded 64 KiB transfer: a memo hit
// allocates no core bytes, and at least one object fewer than the
// memo-less check, which builds a hasher.
func TestCoreMemoArrivalAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
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
	var memo coreMemo
	if _, _, _, err := verifyCore(arrival(t, wire), trust, identity.Untrusted, &memo); err != nil {
		t.Fatal(err)
	}

	const runs = 64
	decoded := func() []*briefcase.Briefcase {
		out := make([]*briefcase.Briefcase, runs+1) // AllocsPerRun warms up once
		for i := range out {
			out[i] = arrival(t, wire)
		}
		return out
	}
	check := func(arrivals []*briefcase.Briefcase, memo *coreMemo) func() {
		i := 0
		return func() {
			_, _, hashed, err := verifyCore(arrivals[i%len(arrivals)], trust, identity.Untrusted, memo)
			if err != nil || hashed != (memo == nil) {
				t.Fatalf("hashed %v, err %v", hashed, err)
			}
			i++
		}
	}
	plain := testing.AllocsPerRun(runs, check(decoded(), nil))
	hit := testing.AllocsPerRun(runs, check(decoded(), &memo))
	again := check(decoded(), &memo)
	hitBytes := allocBytesPerOp(runs, func(int) { again() })
	t.Logf("allocs: memo-less arrival %.0f, memo hit %.0f (%.0f B)", plain, hit, hitBytes)
	if hit > plain-1 {
		t.Errorf("a memo hit allocates %.0f objects, the memo-less arrival %.0f: want at least one fewer", hit, plain)
	}
	if hitBytes >= 1024 {
		t.Errorf("a memo hit on a 64 KiB core allocates %.0f B, budget 1 KiB", hitBytes)
	}
}

// errClass names the sentinel an error from a signature check carries.
func errClass(err error) string {
	for _, s := range []error{ErrUnsigned, identity.ErrBadSignature, identity.ErrUnknownPrincipal, identity.ErrInsufficientTrust} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	if err != nil {
		return "other: " + err.Error()
	}
	return ""
}

// FuzzCoreMemo mutates signed transfers' wire bytes against a warm
// digest memo and holds the memo's path to the memo-less one: for every
// input, verifyCore with the memo and VerifyCore on an independent
// decode of the same bytes name the same principal and fail with the
// same error class. Seeded with the tamper table, as FuzzVerifyCore is.
func FuzzCoreMemo(f *testing.F) {
	alice, err := identity.NewPrincipal("alice")
	if err != nil {
		f.Fatal(err)
	}
	sys, err := identity.NewPrincipal("system")
	if err != nil {
		f.Fatal(err)
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(alice, identity.Trusted)
	trust.AddPrincipal(sys, identity.System)

	var memo coreMemo
	good := signedTransfer(alice, "the body alice signed")
	seeds := [][]byte{
		good.Encode(),
		signedTransfer(alice, "another body alice did sign").Encode(),
		signedTransfer(sys, "the body alice signed").Encode(),
	}
	for _, tc := range coreTampers {
		bc := good.Clone()
		tc.apply(f, alice, &identity.TrustStore{}, bc)
		seeds = append(seeds, bc.Encode())
	}
	for _, wire := range seeds {
		f.Add(wire)
		if bc, err := briefcase.Decode(append([]byte(nil), wire...)); err == nil {
			_, _, _, _ = verifyCore(bc, trust, identity.Untrusted, &memo) // warms the memo with every seed that verifies
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		withMemo, err := briefcase.Decode(append([]byte(nil), data...))
		if err != nil {
			return
		}
		without, err := briefcase.Decode(append([]byte(nil), data...))
		if err != nil {
			t.Fatalf("the same bytes decoded once: %v", err)
		}
		who, _, _, err := verifyCore(withMemo, trust, identity.Untrusted, &memo)
		want, wantErr := VerifyCore(without, trust, identity.Untrusted)
		if who != want || errClass(err) != errClass(wantErr) {
			t.Fatalf("memo path: %q, %v; memo-less: %q, %v\n%x", who, err, want, wantErr, data)
		}
	})
}
