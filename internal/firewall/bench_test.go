package firewall

import (
	"testing"

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
