package firewall

import (
	"testing"

	"tax/internal/briefcase"
	"tax/internal/identity"
)

// referenceCore is the pre-manifest signer's message, kept as the fuzz
// oracle: the reference encoding of a briefcase holding only bc's CODE
// and BINARIES. Two briefcases have the same core iff these bytes match.
func referenceCore(bc *briefcase.Briefcase) string {
	core := briefcase.New()
	for _, name := range []string{briefcase.FolderCode, briefcase.FolderBinaries} {
		if src, err := bc.Folder(name); err == nil {
			core.Ensure(name).Append(src.Bytes()...)
		}
	}
	return string(briefcase.ReferenceEncode(core))
}

// FuzzVerifyCore feeds mutated wire bytes of signed transfers through
// Decode and VerifyCore — the fast codec, the streamed digest, the stamp
// and the verified-manifest cache, warm from the seeds — and holds the
// result against the frozen reference codec: whatever is accepted must
// reference-decode to a principal and a core that principal really did
// sign. Everything else must be refused, and leave no stamp.
func FuzzVerifyCore(f *testing.F) {
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

	// signedBy is every (principal, core) pair a key was actually put to.
	signedBy := map[string]bool{}
	sign := func(p *identity.Principal, code string) *briefcase.Briefcase {
		bc := signedTransfer(p, code)
		signedBy[p.Name()+"\x00"+referenceCore(bc)] = true
		return bc
	}
	good := sign(alice, "the body alice signed")
	sign(alice, "another body alice did sign") // the replay tamper's donor
	f.Add(good.Encode())
	f.Add(sign(sys, "the body alice signed").Encode())
	bare := briefcase.New()
	SignCore(bare, alice)
	signedBy["alice\x00"+referenceCore(bare)] = true
	f.Add(bare.Encode())
	for _, tc := range coreTampers {
		bc := good.Clone()
		// Trust-store tampers get a scratch store: here they seed the
		// untampered bytes, and the fuzz keeps one store throughout.
		tc.apply(f, alice, &identity.TrustStore{}, bc)
		f.Add(bc.Encode())
	}
	wire := good.Encode()
	for _, off := range []int{5, len(wire) / 3, len(wire) / 2, len(wire) - 1} {
		flipped := append([]byte(nil), wire...)
		flipped[off] ^= 0x40
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		bc, err := briefcase.Decode(append([]byte(nil), data...))
		if err != nil {
			return
		}
		who, err := VerifyCore(bc, trust, identity.Untrusted)
		if err != nil {
			if _, _, ok := bc.CoreStamp(); ok {
				t.Fatalf("refused (%v) yet stamped", err)
			}
			return
		}
		ref, err := briefcase.ReferenceDecode(data)
		if err != nil {
			t.Fatalf("verified bytes the reference codec rejects: %v", err)
		}
		if claimed, _ := ref.GetString(briefcase.FolderSysPrincipal); claimed != who {
			t.Fatalf("verified as %q, reference decode claims %q", who, claimed)
		}
		if !signedBy[who+"\x00"+referenceCore(ref)] {
			t.Fatalf("verified a core %q never signed:\n%x", who, data)
		}
		// The stamp and the cache now both know this core; asking again,
		// or asking a fresh decode, must give the same answer.
		if again, err := VerifyCore(bc, trust, identity.Untrusted); err != nil || again != who {
			t.Fatalf("second verify = %q, %v", again, err)
		}
		if _, by, ok := bc.CoreStamp(); !ok || by != who {
			t.Fatalf("verified core stamped %q, %v", by, ok)
		}
	})
}
