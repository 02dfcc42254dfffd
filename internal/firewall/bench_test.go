package firewall

import (
	"testing"

	"tax/internal/briefcase"
	"tax/internal/identity"
	"tax/internal/simnet"
)

func benchFirewall(b *testing.B) (*Firewall, func()) {
	b.Helper()
	net := simnet.New(simnet.LAN100)
	host, err := net.AddHost("h1")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := identity.NewPrincipal("system")
	if err != nil {
		b.Fatal(err)
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(sys, identity.System)
	fw, err := New(Config{
		HostName: "h1", Node: host, Trust: trust, SystemPrincipal: "system",
	})
	if err != nil {
		b.Fatal(err)
	}
	return fw, func() {
		_ = fw.Close()
		_ = net.Close()
	}
}

// BenchmarkRegisterUnregister measures agent registration churn.
func BenchmarkRegisterUnregister(b *testing.B) {
	fw, cleanup := benchFirewall(b)
	defer cleanup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := fw.Register("vm", "system", "churn")
		if err != nil {
			b.Fatal(err)
		}
		fw.Unregister(r)
	}
}

// BenchmarkCoreSignature prices the four states a 64 KiB core's
// signature check can be in (EXPERIMENTS E11, E20): cold — a fresh
// decode, so the core is hashed, and the trust store has never seen it,
// so ed25519 runs; an arrival — hashed, but answered from the
// verified-manifest cache; memo — an arrival at a firewall whose digest
// memo holds the core, so it is compared, not hashed; and warm — a
// stamped briefcase, neither. SignCore likewise:
// over an unstamped core (hash + ed25519 over the manifest) and over a
// stamped one (ed25519 only).
func BenchmarkCoreSignature(b *testing.B) {
	signer, err := identity.NewPrincipal("system")
	if err != nil {
		b.Fatal(err)
	}
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderCode).Append([]byte("tour"), make([]byte, 64<<10))
	SignCore(bc, signer)
	wire := bc.Encode()
	arrivals := func(b *testing.B) []*briefcase.Briefcase {
		out := make([]*briefcase.Briefcase, b.N)
		for i := range out {
			if out[i], err = briefcase.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		return out
	}
	verify := func(b *testing.B, bc *briefcase.Briefcase, trust *identity.TrustStore) {
		if _, err := VerifyCore(bc, trust, identity.Untrusted); err != nil {
			b.Fatal(err)
		}
	}
	trusting := func() *identity.TrustStore {
		trust := &identity.TrustStore{}
		trust.AddPrincipal(signer, identity.System)
		return trust
	}
	b.Run("verify/cold", func(b *testing.B) {
		for _, bc := range arrivals(b) {
			verify(b, bc, trusting())
		}
	})
	b.Run("verify/arrival", func(b *testing.B) {
		trust := trusting()
		for _, bc := range arrivals(b) {
			verify(b, bc, trust)
		}
	})
	b.Run("verify/memo", func(b *testing.B) {
		trust := trusting()
		var memo coreMemo
		first, err := briefcase.Decode(wire) // fills the memo
		if err == nil {
			_, _, _, err = verifyCore(first, trust, identity.Untrusted, &memo)
		}
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range arrivals(b) {
			if _, _, _, err := verifyCore(bc, trust, identity.Untrusted, &memo); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify/warm", func(b *testing.B) {
		trust := trusting()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			verify(b, bc, trust)
		}
	})
	b.Run("sign/unstamped", func(b *testing.B) {
		for _, bc := range arrivals(b) {
			SignCore(bc, signer)
		}
	})
	b.Run("sign/stamped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SignCore(bc, signer)
		}
	})
}
