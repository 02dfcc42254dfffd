package firewall

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/identity"
)

// signedTransfer is a transfer for h2's vm_go whose core — two CODE
// elements and one BINARIES image — is signed by p.
func signedTransfer(p *identity.Principal, code string) *briefcase.Briefcase {
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/system/vm_go")
	bc.SetString(FolderKind, KindTransfer)
	bc.Ensure(briefcase.FolderCode).AppendString("prog", code)
	bc.Ensure(briefcase.FolderBinaries).AppendString("amd64 image bytes")
	bc.Ensure(briefcase.FolderArgs).AppendString("arg0")
	SignCore(bc, p)
	return bc
}

// flipByte rewrites element i of the folder with its first byte flipped,
// through the folder's own mutators — the only way in-memory code can
// change an element, and so the way a stamp must notice.
func flipByte(t testing.TB, bc *briefcase.Briefcase, folder string, i int) {
	t.Helper()
	f, err := bc.Folder(folder)
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.Remove(i)
	if err != nil {
		t.Fatal(err)
	}
	e = e.Clone()
	e[0] ^= 1
	if err := f.Insert(i, e); err != nil {
		t.Fatal(err)
	}
}

// coreTampers is the tamper table: every way this repo knows to present a
// core that is not the one its signature vouches for. apply receives a
// transfer that alice signed and this very process has already verified
// (so it carries a valid stamp, and the trust store's cache holds its
// manifest): neither memo may let the tampered core through. It is the
// seed corpus of FuzzVerifyCore too.
var coreTampers = []struct {
	name  string
	apply func(t testing.TB, alice *identity.Principal, trust *identity.TrustStore, bc *briefcase.Briefcase)
	want  error
}{
	{"flip a byte of CODE", func(t testing.TB, _ *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		flipByte(t, bc, briefcase.FolderCode, 1)
	}, identity.ErrBadSignature},
	{"flip a byte of BINARIES", func(t testing.TB, _ *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		flipByte(t, bc, briefcase.FolderBinaries, 0)
	}, identity.ErrBadSignature},
	{"flip a byte of the signature", func(t testing.TB, _ *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		flipByte(t, bc, briefcase.FolderSysSignature, 0)
	}, identity.ErrBadSignature},
	{"truncate the signature", func(t testing.TB, _ *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		f, _ := bc.Folder(briefcase.FolderSysSignature)
		sig, _ := f.Remove(0)
		f.Append(sig[:len(sig)-1])
	}, identity.ErrBadSignature},
	{"swap the principal to another trusted one", func(_ testing.TB, _ *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		bc.SetString(briefcase.FolderSysPrincipal, "system")
	}, identity.ErrBadSignature},
	{"swap the principal to another name for the same key", func(_ testing.TB, alice *identity.Principal, trust *identity.TrustStore, bc *briefcase.Briefcase) {
		// Only the principal inside the signed manifest tells these apart.
		trust.Add("alias", alice.PublicKey(), identity.System)
		bc.SetString(briefcase.FolderSysPrincipal, "alias")
	}, identity.ErrBadSignature},
	{"replay signature and principal onto other code", func(_ testing.TB, _ *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		code := bc.Ensure(briefcase.FolderCode)
		code.Clear()
		code.AppendString("prog", "a body alice never signed")
	}, identity.ErrBadSignature},
	{"replay another core's valid signature", func(_ testing.TB, alice *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		other := signedTransfer(alice, "another body alice did sign")
		sig, _ := other.Folder(briefcase.FolderSysSignature)
		f := bc.Ensure(briefcase.FolderSysSignature)
		f.Clear()
		f.Append(sig.Bytes()...)
	}, identity.ErrBadSignature},
	{"append to CODE after the verify", func(_ testing.TB, _ *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		bc.Ensure(briefcase.FolderCode).AppendString("injected")
	}, identity.ErrBadSignature},
	{"move a CODE element into BINARIES", func(_ testing.TB, _ *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		e, _ := bc.Ensure(briefcase.FolderCode).Remove(1)
		bc.Ensure(briefcase.FolderBinaries).Append(e)
	}, identity.ErrBadSignature},
	{"drop BINARIES", func(_ testing.TB, _ *identity.Principal, _ *identity.TrustStore, bc *briefcase.Briefcase) {
		bc.Drop(briefcase.FolderBinaries)
	}, identity.ErrBadSignature},
	{"the signer is removed from the trust store", func(_ testing.TB, _ *identity.Principal, trust *identity.TrustStore, _ *briefcase.Briefcase) {
		trust.Remove("alice")
	}, identity.ErrUnknownPrincipal},
	{"the signer's key is replaced", func(t testing.TB, _ *identity.Principal, trust *identity.TrustStore, _ *briefcase.Briefcase) {
		rotated, err := identity.NewPrincipal("alice")
		if err != nil {
			t.Fatal(err)
		}
		trust.AddPrincipal(rotated, identity.Trusted)
	}, identity.ErrBadSignature},
	{"the signer is removed, then re-added under a new key", func(t testing.TB, _ *identity.Principal, trust *identity.TrustStore, _ *briefcase.Briefcase) {
		trust.Remove("alice")
		rotated, err := identity.NewPrincipal("alice")
		if err != nil {
			t.Fatal(err)
		}
		trust.AddPrincipal(rotated, identity.Trusted)
	}, identity.ErrBadSignature},
}

// TestCoreTamperTable runs every tamper twice: against VerifyCore on the
// in-memory briefcase that was verified a moment ago, and over the wire
// into a RequireAuth firewall that has this core's manifest cached. Both
// must fail closed: the typed error, fw.auth_failures and
// fw.core_verify{fail} up by exactly one, nothing delivered.
func TestCoreTamperTable(t *testing.T) {
	for _, tc := range coreTampers {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t)
			fx.config = func(c *Config) { c.RequireAuth = true }
			fx.addHost("h1")
			fx.addHost("h2")
			fw1, fw2 := fx.sites["h1"].fw, fx.sites["h2"].fw
			sender, _ := fw1.Register("vm_go", "alice", "sender")
			vm2, _ := fw2.Register("vm_go", "system", "vm_go")

			// Control: the untampered transfer is admitted, by ed25519 the
			// first time and from the cache the second.
			bc := signedTransfer(fx.alice, "the body alice signed")
			for i := 0; i < 2; i++ {
				if err := fw1.Send(sender.GlobalURI(), bc.Clone()); err != nil {
					t.Fatal(err)
				}
				if _, err := vm2.Recv(2 * time.Second); err != nil {
					t.Fatalf("control transfer %d not delivered: %v", i, err)
				}
			}
			if miss, hit := fw2.ctr.coreVerifyMiss.Value(), fw2.ctr.coreVerifyHit.Value(); miss != 1 || hit != 1 {
				t.Fatalf("control: fw.core_verify miss=%d hit=%d, want 1 and 1", miss, hit)
			}
			if who, err := VerifyCore(bc, fx.trust, identity.Trusted); err != nil || who != "alice" {
				t.Fatalf("control: VerifyCore = %q, %v", who, err)
			}
			if _, by, ok := bc.CoreStamp(); !ok || by != "alice" {
				t.Fatalf("control: stamp = %q, %v", by, ok)
			}

			tc.apply(t, fx.alice, fx.trust, bc)

			// In memory, on the briefcase that holds the stamp.
			if _, err := VerifyCore(bc, fx.trust, identity.Untrusted); !errors.Is(err, tc.want) {
				t.Errorf("VerifyCore after tamper: err = %v, want %v", err, tc.want)
			}
			// Over the wire, into the firewall that holds the cache.
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
			if n := fw2.Stats().AuthFailures; n != 1 {
				t.Errorf("fw.auth_failures = %d, want 1", n)
			}
			if n := fw2.ctr.coreVerifyFail.Value(); n != 1 {
				t.Errorf("fw.core_verify{fail} = %d, want 1", n)
			}
			if miss, hit := fw2.ctr.coreVerifyMiss.Value(), fw2.ctr.coreVerifyHit.Value(); miss != 1 || hit != 1 {
				t.Errorf("a refusal moved fw.core_verify miss=%d hit=%d", miss, hit)
			}
			if _, ok := vm2.TryRecv(); ok {
				t.Error("tampered transfer delivered")
			}
		})
	}
}

// A failed verify must not leave a stamp that a later signTransfer (or
// verify) would trust, and a verify that succeeds at one level stamps
// nothing a stricter level can skip.
func TestVerifyCoreStampsOnlySuccess(t *testing.T) {
	fx := newFixture(t, "h1")
	bc := signedTransfer(fx.mal, "body")
	if _, _, ok := bc.CoreStamp(); !ok {
		t.Fatal("SignCore left no stamp")
	}
	fresh, err := briefcase.Decode(bc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyCore(fresh, fx.trust, identity.Untrusted); !errors.Is(err, identity.ErrUnknownPrincipal) {
		t.Fatalf("unknown signer: err = %v", err)
	}
	if _, _, ok := fresh.CoreStamp(); ok {
		t.Error("a refused core was stamped")
	}

	ok := signedTransfer(fx.alice, "body")
	if _, err := VerifyCore(ok, fx.trust, identity.Trusted); err != nil {
		t.Fatal(err)
	}
	// alice is Trusted, not System: the stamp and the cached manifest
	// answer "is the signature valid", never "is the signer trusted enough".
	if _, err := VerifyCore(ok, fx.trust, identity.System); !errors.Is(err, identity.ErrInsufficientTrust) {
		t.Errorf("stricter level on a stamped core: err = %v", err)
	}
	fx.trust.AddPrincipal(fx.alice, identity.Untrusted)
	if _, err := VerifyCore(ok, fx.trust, identity.Trusted); !errors.Is(err, identity.ErrInsufficientTrust) {
		t.Errorf("demoted signer on a stamped core: err = %v", err)
	}
}

// SignCore is deterministic and stamp-independent: the signature a
// stamped briefcase gets is byte for byte the one a fresh decode of the
// same core gets, and it is always exactly one 64-byte element.
func TestSignCoreSameBytesWarmAndCold(t *testing.T) {
	fx := newFixture(t, "h1")
	warm := signedTransfer(fx.alice, "body")
	SignCore(warm, fx.alice) // digest from the stamp
	cold, err := briefcase.Decode(warm.Encode())
	if err != nil {
		t.Fatal(err)
	}
	wire := cold.Encode()
	SignCore(cold, fx.alice) // digest hashed from the wire regions
	if string(cold.Encode()) != string(wire) {
		t.Error("re-signing an unchanged core changed its wire bytes")
	}
	sig, _ := cold.Folder(briefcase.FolderSysSignature)
	if sig.Len() != 1 || sig.Size() != 64 {
		t.Errorf("_SIGNATURE holds %d elements, %d bytes; want 1 and 64", sig.Len(), sig.Size())
	}
}

// TestCoreStampSparesTheHash shows the memo at work the only way it is
// visible from outside: by breaking AppendAlias's contract. The core's
// bytes are changed behind the briefcase's back — no mutator runs, so the
// stamp still holds — and VerifyCore and SignCore keep answering for the
// core they hashed. A fresh decode of the same bytes is hashed, and
// refused. (Legitimate code cannot get here: every way to change an
// element goes through a mutator, which TestCoreTamperTable covers.)
func TestCoreStampSparesTheHash(t *testing.T) {
	fx := newFixture(t, "h1")
	image := []byte("an image the caller promised to leave alone")
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderCode).AppendString("prog")
	bc.Ensure(briefcase.FolderBinaries).AppendAlias(image)
	SignCore(bc, fx.alice)
	signed := bc.Encode()

	image[0] ^= 1
	if _, err := VerifyCore(bc, fx.trust, identity.Untrusted); err != nil {
		t.Errorf("stamped briefcase was re-hashed: %v", err)
	}
	SignCore(bc, fx.alice)
	want, _ := briefcase.Peek(signed, briefcase.FolderSysSignature)
	if got, _ := briefcase.Peek(bc.Encode(), briefcase.FolderSysSignature); !bytes.Equal(got, want) {
		t.Error("SignCore on a stamped briefcase signed a fresh hash")
	}
	fresh, err := briefcase.Decode(bc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyCore(fresh, fx.trust, identity.Untrusted); !errors.Is(err, identity.ErrBadSignature) {
		t.Errorf("fresh decode of the altered core: err = %v", err)
	}
}
