package identity

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func newTestPrincipal(t *testing.T, name string) *Principal {
	t.Helper()
	p, err := NewPrincipal(name)
	if err != nil {
		t.Fatalf("NewPrincipal(%q): %v", name, err)
	}
	return p
}

func TestNewPrincipalValidation(t *testing.T) {
	if _, err := NewPrincipal(""); err == nil {
		t.Error("empty name accepted")
	}
	p := newTestPrincipal(t, "alice")
	if p.Name() != "alice" {
		t.Errorf("Name = %q", p.Name())
	}
	if len(p.KeyID()) != 16 {
		t.Errorf("KeyID length = %d, want 16 hex chars", len(p.KeyID()))
	}
}

func TestSignVerify(t *testing.T) {
	p := newTestPrincipal(t, "alice")
	msg := []byte("agent core bytes")
	sig := p.Sign(msg)
	if err := Verify(p.PublicKey(), msg, sig); err != nil {
		t.Errorf("Verify own signature: %v", err)
	}
	if err := Verify(p.PublicKey(), []byte("tampered"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered message: err = %v, want ErrBadSignature", err)
	}
	other := newTestPrincipal(t, "mallory")
	if err := Verify(other.PublicKey(), msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong key: err = %v, want ErrBadSignature", err)
	}
	if err := Verify(nil, msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("nil key: err = %v, want ErrBadSignature", err)
	}
}

func TestTrustStoreLevels(t *testing.T) {
	var s TrustStore
	alice := newTestPrincipal(t, "alice")
	s.AddPrincipal(alice, Trusted)

	lvl, err := s.Level("alice")
	if err != nil || lvl != Trusted {
		t.Errorf("Level = %v, %v", lvl, err)
	}
	if _, err := s.Level("nobody"); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("unknown principal err = %v", err)
	}
	if err := s.Require("alice", Trusted); err != nil {
		t.Errorf("Require(Trusted): %v", err)
	}
	if err := s.Require("alice", System); !errors.Is(err, ErrInsufficientTrust) {
		t.Errorf("Require(System) err = %v, want ErrInsufficientTrust", err)
	}
}

func TestTrustStoreVerifyBy(t *testing.T) {
	var s TrustStore
	alice := newTestPrincipal(t, "alice")
	bob := newTestPrincipal(t, "bob")
	s.AddPrincipal(alice, Trusted)
	s.AddPrincipal(bob, Untrusted)

	msg := []byte("binary payload")
	if err := s.VerifyBy("alice", msg, alice.Sign(msg), Trusted); err != nil {
		t.Errorf("VerifyBy trusted signer: %v", err)
	}
	// Right signature, insufficient level.
	if err := s.VerifyBy("bob", msg, bob.Sign(msg), Trusted); !errors.Is(err, ErrInsufficientTrust) {
		t.Errorf("untrusted signer err = %v, want ErrInsufficientTrust", err)
	}
	// Signature by the wrong key.
	if err := s.VerifyBy("alice", msg, bob.Sign(msg), Untrusted); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong signer err = %v, want ErrBadSignature", err)
	}
	if err := s.VerifyBy("nobody", msg, nil, Untrusted); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("unknown signer err = %v, want ErrUnknownPrincipal", err)
	}
}

func TestTrustStoreRemoveAndReplace(t *testing.T) {
	var s TrustStore
	alice := newTestPrincipal(t, "alice")
	s.AddPrincipal(alice, System)
	s.Remove("alice")
	if _, err := s.Level("alice"); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("after Remove: %v", err)
	}
	// Replacing downgrades.
	s.AddPrincipal(alice, System)
	s.AddPrincipal(alice, Untrusted)
	if lvl, _ := s.Level("alice"); lvl != Untrusted {
		t.Errorf("replace did not downgrade: %v", lvl)
	}
}

func TestTrustStoreKeyReturnsCopy(t *testing.T) {
	var s TrustStore
	alice := newTestPrincipal(t, "alice")
	s.AddPrincipal(alice, Trusted)
	k, err := s.Key("alice")
	if err != nil {
		t.Fatal(err)
	}
	k[0] ^= 0xFF
	k2, _ := s.Key("alice")
	if k2[0] == k[0] {
		t.Error("Key returned a live reference into the store")
	}
	if _, err := s.Key("nobody"); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("Key(nobody) err = %v", err)
	}
}

func TestTrustStoreNames(t *testing.T) {
	var s TrustStore
	if n := s.Names(); len(n) != 0 {
		t.Errorf("zero store names: %v", n)
	}
	s.AddPrincipal(newTestPrincipal(t, "a"), Trusted)
	s.AddPrincipal(newTestPrincipal(t, "b"), Trusted)
	if n := s.Names(); len(n) != 2 {
		t.Errorf("Names = %v", n)
	}
}

func TestLevelOrderingAndString(t *testing.T) {
	if !(Untrusted < Trusted && Trusted < System) {
		t.Error("trust levels not ordered")
	}
	for lvl, want := range map[Level]string{Untrusted: "untrusted", Trusted: "trusted", System: "system", Level(9): "Level(9)"} {
		if lvl.String() != want {
			t.Errorf("%d.String() = %q, want %q", lvl, lvl.String(), want)
		}
	}
}

// Property: signatures verify iff message and key match.
func TestPropSignatureSoundness(t *testing.T) {
	alice, err := NewPrincipal("alice")
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte, flip uint8, pos uint16) bool {
		sig := alice.Sign(msg)
		if Verify(alice.PublicKey(), msg, sig) != nil {
			return false
		}
		if len(msg) == 0 {
			return true
		}
		// Any single-bit flip must break verification.
		tampered := append([]byte{}, msg...)
		tampered[int(pos)%len(msg)] ^= 1 << (flip % 8)
		if string(tampered) == string(msg) {
			return true
		}
		return Verify(alice.PublicKey(), tampered, sig) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// mustVerifyManifest checks one VerifyManifest outcome: whether it was
// answered from the cache, and which error (nil for success) came back.
func mustVerifyManifest(t *testing.T, s *TrustStore, name string, msg, sig []byte, lvl Level, wantCached bool, wantErr error) {
	t.Helper()
	cached, err := s.VerifyManifest(name, msg, sig, lvl)
	if !errors.Is(err, wantErr) {
		t.Fatalf("VerifyManifest err = %v, want %v", err, wantErr)
	}
	if cached != wantCached {
		t.Fatalf("VerifyManifest cached = %v, want %v", cached, wantCached)
	}
}

func TestVerifyManifestCachesOnlySuccesses(t *testing.T) {
	var s TrustStore
	alice := newTestPrincipal(t, "alice")
	s.AddPrincipal(alice, Trusted)
	msg := []byte("manifest of one core")
	sig := alice.Sign(msg)

	// A forgery is refused, is refused again the same way (nothing was
	// remembered), and does not stand in the way of the real signature.
	forged := append([]byte(nil), sig...)
	forged[0] ^= 1
	mustVerifyManifest(t, &s, "alice", msg, forged, Untrusted, false, ErrBadSignature)
	mustVerifyManifest(t, &s, "alice", msg, forged, Untrusted, false, ErrBadSignature)
	if len(s.verified) != 0 {
		t.Fatalf("a failed check left %d cache entries", len(s.verified))
	}
	mustVerifyManifest(t, &s, "alice", msg, sig, Untrusted, false, nil)
	mustVerifyManifest(t, &s, "alice", msg, sig, Untrusted, true, nil)
	mustVerifyManifest(t, &s, "alice", msg, forged, Untrusted, false, ErrBadSignature)
	mustVerifyManifest(t, &s, "alice", []byte("another core"), sig, Untrusted, false, ErrBadSignature)

	// A hit answers only the signature question: the level is read live.
	mustVerifyManifest(t, &s, "alice", msg, sig, System, true, ErrInsufficientTrust)
	s.AddPrincipal(alice, Untrusted)
	mustVerifyManifest(t, &s, "alice", msg, sig, Trusted, true, ErrInsufficientTrust)
	mustVerifyManifest(t, &s, "alice", msg, sig, Untrusted, true, nil)

	// VerifyBy neither fills nor reads the cache.
	other := []byte("a channel frame")
	if err := s.VerifyBy("alice", other, alice.Sign(other), Untrusted); err != nil {
		t.Fatal(err)
	}
	if len(s.verified) != 1 {
		t.Errorf("cache holds %d entries, want the one verified manifest", len(s.verified))
	}
}

// The cache must not outlive the trust decision it was made under: once
// the principal is removed, or its key replaced, a remembered signature
// by the old key verifies no more.
func TestVerifyManifestCacheFollowsTheKey(t *testing.T) {
	var s TrustStore
	old := newTestPrincipal(t, "alice")
	s.AddPrincipal(old, Trusted)
	msg := []byte("manifest")
	sig := old.Sign(msg)
	mustVerifyManifest(t, &s, "alice", msg, sig, Untrusted, false, nil)
	mustVerifyManifest(t, &s, "alice", msg, sig, Untrusted, true, nil)

	s.Remove("alice")
	mustVerifyManifest(t, &s, "alice", msg, sig, Untrusted, false, ErrUnknownPrincipal)

	rotated := newTestPrincipal(t, "alice")
	s.AddPrincipal(rotated, Trusted)
	mustVerifyManifest(t, &s, "alice", msg, sig, Untrusted, false, ErrBadSignature)
	mustVerifyManifest(t, &s, "alice", msg, rotated.Sign(msg), Untrusted, false, nil)

	// Another name holding the old key is a different trust decision with
	// the same arithmetic: the signature is valid under that key.
	s.Add("bob", old.PublicKey(), Untrusted)
	mustVerifyManifest(t, &s, "bob", msg, sig, Untrusted, true, nil)
	mustVerifyManifest(t, &s, "bob", msg, sig, Trusted, true, ErrInsufficientTrust)
}

// A signature of the wrong length cannot verify, and must not be looked
// up either: shifting bytes between signature and message would hash to
// a remembered triple.
func TestVerifyManifestNoAliasing(t *testing.T) {
	var s TrustStore
	alice := newTestPrincipal(t, "alice")
	s.AddPrincipal(alice, Trusted)
	msg := []byte("manifest")
	sig := alice.Sign(msg)
	mustVerifyManifest(t, &s, "alice", msg, sig, Untrusted, false, nil)
	shifted := append(append([]byte(nil), sig[63:]...), msg...)
	mustVerifyManifest(t, &s, "alice", shifted, sig[:63], Untrusted, false, ErrBadSignature)
	mustVerifyManifest(t, &s, "alice", msg[1:], append(append([]byte(nil), sig...), msg[0]), Untrusted, false, ErrBadSignature)
	s.Add("short", alice.PublicKey()[:31], Trusted)
	mustVerifyManifest(t, &s, "short", msg, sig, Untrusted, false, ErrBadSignature)
}

func TestVerifyManifestCacheIsBounded(t *testing.T) {
	var s TrustStore
	alice := newTestPrincipal(t, "alice")
	s.AddPrincipal(alice, Trusted)
	var last []byte
	for i := 0; i < verifiedCacheSize+50; i++ {
		last = []byte{byte(i), byte(i >> 8), 'm'}
		mustVerifyManifest(t, &s, "alice", last, alice.Sign(last), Untrusted, false, nil)
		if len(s.verified) > verifiedCacheSize {
			t.Fatalf("cache grew to %d entries, bound %d", len(s.verified), verifiedCacheSize)
		}
	}
	// The newest entry is never the one evicted to make room for itself.
	mustVerifyManifest(t, &s, "alice", last, alice.Sign(last), Untrusted, true, nil)
}

func TestVerifyManifestConcurrent(t *testing.T) {
	var s TrustStore
	alice := newTestPrincipal(t, "alice")
	s.AddPrincipal(alice, Trusted)
	msg := []byte("manifest")
	sig := alice.Sign(msg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := s.VerifyManifest("alice", msg, sig, Trusted); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					s.AddPrincipal(alice, Trusted)
				}
			}
		}()
	}
	wg.Wait()
}
