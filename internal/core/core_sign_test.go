package core

import (
	"strings"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/vm"
)

// fwCount reads one of a node's firewall counters from its registry.
func fwCount(n *Node, name string) int64 {
	return n.FW.Telemetry().Registry().Counter(name, "host", n.Name).Value()
}

// counterSum adds one counter up over every node's registry.
func counterSum(s *System, name string, labels ...string) (sum int64) {
	for _, n := range s.Nodes() {
		l := append([]string{"host", n.Name}, labels...)
		sum += n.FW.Telemetry().Registry().Counter(name, l...).Value()
	}
	return sum
}

// TestTourSignsOnceVerifiesFromCache pins what a migration pays for its
// signature. A 12-hop tour over four RequireAuth nodes, whose agent adds
// its carried image to CODE at the first stop, is signed exactly once —
// at the first move, which takes the core off its launch host — and
// never again: the other eleven moves find the arrival's stamp and
// re-sign nothing. Its twelve arrivals all verify; ed25519 runs for at most one
// of them per host (here once — core nodes share the deployment's trust
// store) and for none on a second tour of the same core.
func TestTourSignsOnceVerifiesFromCache(t *testing.T) {
	hosts := []string{"h1", "h2", "h3", "h4"}
	s := newSystem(t, NodeOptions{NoCVM: true, RequireAuth: true}, hosts...)
	home, _ := s.Node("h1")
	collector, err := home.FW.Register("test", s.SystemPrincipal.Name(), "collector")
	if err != nil {
		t.Fatal(err)
	}
	image := []byte(strings.Repeat("carried image ", 4096))
	s.DeployProgram("tour", func(ctx *agent.Context) error {
		err := agent.RunItinerary(ctx, func(ctx *agent.Context) error {
			bc := ctx.Briefcase()
			if code := bc.Ensure(briefcase.FolderCode); code.Len() == 1 {
				code.Append(image)
			}
			bc.Ensure(briefcase.FolderResults).AppendString(ctx.Host())
			return nil
		})
		if err != nil {
			return err
		}
		out := briefcase.New()
		res, _ := ctx.Briefcase().Folder(briefcase.FolderResults)
		out.Ensure(briefcase.FolderResults).Append(res.Bytes()...)
		return ctx.Activate("tacoma://h1//collector", out)
	})
	itinerary := []string{"h2", "h3", "h4", "h2", "h4", "h3", "h2", "h3", "h4", "h3", "h2", "h1"}

	type counts struct{ signed, hit, miss, fail int64 }
	read := func() counts {
		return counts{
			signed: counterSum(s, "vm.core_signed", "vm", "vm_go"),
			hit:    counterSum(s, "fw.core_verify", "result", "hit"),
			miss:   counterSum(s, "fw.core_verify", "result", "miss"),
			fail:   counterSum(s, "fw.core_verify", "result", "fail"),
		}
	}
	tour := func() counts {
		t.Helper()
		before := read()
		bc := briefcase.New()
		for _, h := range itinerary {
			bc.Ensure(briefcase.FolderHosts).AppendString("tacoma://" + h + "//vm_go")
		}
		if _, err := home.VM.Launch(s.SystemPrincipal.Name(), "tourist", "tour", bc); err != nil {
			t.Fatal(err)
		}
		got, err := collector.Recv(10 * time.Second)
		if err != nil {
			t.Fatalf("tour did not come home: %v", err)
		}
		res, _ := got.Folder(briefcase.FolderResults)
		if want := "h1," + strings.Join(itinerary, ","); strings.Join(res.Strings(), ",") != want {
			t.Fatalf("stops = %v, want %s", res.Strings(), want)
		}
		after := read()
		return counts{after.signed - before.signed, after.hit - before.hit, after.miss - before.miss, after.fail - before.fail}
	}

	first := tour()
	if first.signed != 1 {
		t.Errorf("first tour: %d core signatures, want 1 (the first move)", first.signed)
	}
	if first.hit+first.miss != int64(len(itinerary)) || first.fail != 0 {
		t.Errorf("first tour: verifies hit=%d miss=%d fail=%d, want %d successes", first.hit, first.miss, first.fail, len(itinerary))
	}
	if first.miss < 1 || first.miss > int64(len(hosts)) {
		t.Errorf("first tour: %d cache misses, want between 1 and one per host (%d)", first.miss, len(hosts))
	}
	second := tour()
	if want := (counts{signed: 1, hit: int64(len(itinerary))}); second != want {
		t.Errorf("second tour: %+v, want %+v", second, want)
	}
	for _, n := range s.Nodes() {
		if a, e := fwCount(n, "fw.auth_failures"), fwCount(n, "fw.errors"); a != 0 || e != 0 {
			t.Errorf("%s: auth failures %d, errors %d", n.Name, a, e)
		}
	}
}

// TestBootSignsNothing: booting a RequireAuth system launches every
// service agent, and none of them is signed, because none leaves its
// host. The first core that does leave is signed once, on its way out,
// and the destination admits it.
func TestBootSignsNothing(t *testing.T) {
	s := newSystem(t, NodeOptions{RequireAuth: true}, "h1", "h2")
	signed := func() (sum int64) {
		for _, v := range []string{"vm_go", "vm_bin", "vm_c"} {
			sum += counterSum(s, "vm.core_signed", "vm", v)
		}
		return sum
	}
	if n := signed(); n != 0 {
		t.Fatalf("boot signed %d cores, want 0", n)
	}
	h1, _ := s.Node("h1")
	arrived := make(chan string, 1)
	s.DeployProgram("hop", func(ctx *agent.Context) error {
		if ctx.Host() == "h1" {
			return ctx.Go("tacoma://h2//vm_go")
		}
		arrived <- ctx.Registration().URI().Principal
		return nil
	})
	if _, err := h1.VM.Launch(s.SystemPrincipal.Name(), "hopper", "hop", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case who := <-arrived:
		if who != s.SystemPrincipal.Name() {
			t.Errorf("admitted as %q, want %q", who, s.SystemPrincipal.Name())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the agent never arrived at h2")
	}
	if n := signed(); n != 1 {
		t.Errorf("a one-hop move signed %d cores, want 1", n)
	}
	h2, _ := s.Node("h2")
	if n := fwCount(h2, "fw.auth_failures"); n != 0 {
		t.Errorf("h2 fw.auth_failures = %d, want 0", n)
	}
}

// TestTamperedTransferNotActivated is the tamper table's two-host case
// with the whole node stack in place: a RequireAuth node refuses a
// system-signed transfer whose core is not the signed one, and vm_go
// activates nothing.
func TestTamperedTransferNotActivated(t *testing.T) {
	tenant, err := identity.NewPrincipal("tenant")
	if err != nil {
		t.Fatal(err)
	}
	tampers := map[string]func(s *System, bc *briefcase.Briefcase){
		"append to CODE after signing": func(_ *System, bc *briefcase.Briefcase) {
			bc.Ensure(briefcase.FolderCode).AppendString("injected")
		},
		"swap the principal to another trusted one": func(_ *System, bc *briefcase.Briefcase) {
			bc.SetString(briefcase.FolderSysPrincipal, "tenant")
		},
		"replay a tenant's signature as system": func(_ *System, bc *briefcase.Briefcase) {
			firewall.SignCore(bc, tenant)
			bc.SetString(briefcase.FolderSysPrincipal, "system")
		},
		"the signer's key is replaced": func(s *System, _ *briefcase.Briefcase) {
			rotated, err := identity.NewPrincipal(s.SystemPrincipal.Name())
			if err != nil {
				panic(err)
			}
			s.Trust.AddPrincipal(rotated, identity.System)
		},
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			s := newSystem(t, NodeOptions{NoCVM: true, RequireAuth: true}, "h1", "h2")
			s.Trust.AddPrincipal(tenant, identity.Trusted)
			n1, _ := s.Node("h1")
			n2, _ := s.Node("h2")
			ran := make(chan string, 4)
			s.DeployProgram("probe", func(ctx *agent.Context) error {
				ran <- ctx.Registration().URI().Principal
				return nil
			})
			sender, err := n1.FW.Register("test", s.SystemPrincipal.Name(), "dropper")
			if err != nil {
				t.Fatal(err)
			}
			mk := func() *briefcase.Briefcase {
				bc := briefcase.New()
				bc.Ensure(briefcase.FolderCode).AppendString("probe", "carried body")
				bc.SetString(firewall.FolderKind, firewall.KindTransfer)
				bc.SetString(briefcase.FolderSysTarget, "tacoma://h2//vm_go")
				firewall.SignCore(bc, s.SystemPrincipal)
				return bc
			}
			// Warm h2's cache with the genuine core first.
			if err := n1.FW.Send(sender.GlobalURI(), mk()); err != nil {
				t.Fatal(err)
			}
			select {
			case who := <-ran:
				if who != "system" {
					t.Fatalf("control activated as %q", who)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("control transfer never activated")
			}
			reg := n2.FW.Telemetry().Registry()
			activated := reg.Counter("vm.activated", "host", "h2", "vm", "vm_go")
			before := activated.Value()
			bc := mk()
			tamper(s, bc)
			if err := n1.FW.Send(sender.GlobalURI(), bc); err != nil {
				t.Fatal(err)
			}
			rep, err := sender.Recv(5 * time.Second)
			if err != nil {
				t.Fatalf("no rejection report: %v", err)
			}
			if reason, _ := rep.GetString(briefcase.FolderSysError); firewall.Kind(rep) != firewall.KindError ||
				!strings.Contains(reason, identity.ErrBadSignature.Error()) {
				t.Errorf("report kind %q reason %q", firewall.Kind(rep), reason)
			}
			if n := fwCount(n2, "fw.auth_failures"); n != 1 {
				t.Errorf("h2 fw.auth_failures = %d, want 1", n)
			}
			if n := activated.Value(); n != before {
				t.Errorf("h2 vm.activated went %d -> %d", before, n)
			}
			if n := reg.Counter("fw.core_verify", "host", "h2", "result", "fail").Value(); n != 1 {
				t.Errorf("h2 fw.core_verify{fail} = %d, want 1", n)
			}
			select {
			case who := <-ran:
				t.Errorf("tampered transfer activated as %q", who)
			default:
			}
		})
	}
}

// TestBinArrivalChecksTrustLive: with RequireAuth a vm_bin arrival is
// verified twice, by the firewall (any known signer) and by vm_bin (a
// Trusted one). The second check rides on the first one's stamp and the
// trust store's cache for the hash and the ed25519, but what it is there
// for — the signer's level, as it is now — is still read from the store.
func TestBinArrivalChecksTrustLive(t *testing.T) {
	s := newSystem(t, NodeOptions{NoCVM: true, RequireAuth: true}, "h1", "h2")
	n1, _ := s.Node("h1")
	n2, _ := s.Node("h2")
	vendor, err := s.NewPrincipal("vendor", identity.Trusted)
	if err != nil {
		t.Fatal(err)
	}
	img := vm.SyntheticImage("tool", n2.Arch, "1.0", 64<<10)
	ran := make(chan string, 2)
	n2.Binaries.Deploy(vm.Binary{
		Name: "tool", Arch: n2.Arch, Version: "1.0", Payload: img,
		Handler: func(ctx *agent.Context) error { ran <- ctx.Registration().URI().Principal; return nil },
	})
	sender, err := n1.FW.Register("test", "vendor", "dropper")
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		t.Helper()
		bc := briefcase.New()
		vm.PackBinaries(bc, vm.Binary{Name: "tool", Arch: n2.Arch, Version: "1.0", Payload: img})
		bc.SetString(firewall.FolderKind, firewall.KindTransfer)
		bc.SetString(briefcase.FolderSysTarget, "tacoma://h2//vm_bin")
		firewall.SignCore(bc, vendor)
		if err := n1.FW.Send(sender.GlobalURI(), bc); err != nil {
			t.Fatal(err)
		}
	}
	reg := n2.FW.Telemetry().Registry()
	verified := func(result string) int64 {
		return reg.Counter("fw.core_verify", "host", "h2", "result", result).Value()
	}

	send()
	select {
	case who := <-ran:
		if who != "vendor" {
			t.Fatalf("activated as %q", who)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("trusted binary never activated")
	}
	if verified("miss") != 1 || verified("hit") != 0 {
		t.Fatalf("first arrival: miss=%d hit=%d", verified("miss"), verified("hit"))
	}

	// Demoted: still a known signer, so the firewall admits the transfer —
	// from its cache — and vm_bin, reading the level live, refuses it.
	s.Trust.AddPrincipal(vendor, identity.Untrusted)
	send()
	rep, err := sender.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("no rejection report: %v", err)
	}
	if reason, _ := rep.GetString(briefcase.FolderSysError); !strings.Contains(reason, identity.ErrInsufficientTrust.Error()) {
		t.Errorf("rejection reason = %q", reason)
	}
	if verified("hit") != 1 || verified("fail") != 0 {
		t.Errorf("demoted arrival: hit=%d fail=%d, want the firewall to admit from its cache", verified("hit"), verified("fail"))
	}
	if n := reg.Counter("vm.rejected", "host", "h2", "vm", "vm_bin").Value(); n != 1 {
		t.Errorf("vm_bin vm.rejected = %d, want 1", n)
	}
	select {
	case who := <-ran:
		t.Errorf("demoted signer's binary ran as %q", who)
	default:
	}
}

// TestTourHashesOncePerHost pins what a host's digest memo spares a
// migration. On the tour TestTourSignsOnceVerifiesFromCache takes, each
// of the four RequireAuth hosts hashes the arriving core once on the
// core's first tour, and none does on its second: every later
// arrival is byte-compared against the memo instead. A crash takes the
// memo with the rest of the host's volatile state, so after a restart
// that host hashes exactly once more, and no other host does.
func TestTourHashesOncePerHost(t *testing.T) {
	hosts := []string{"h1", "h2", "h3", "h4"}
	s := newSystem(t, NodeOptions{NoCVM: true, RequireAuth: true}, hosts...)
	home, _ := s.Node("h1")
	collector, err := home.FW.Register("test", s.SystemPrincipal.Name(), "collector")
	if err != nil {
		t.Fatal(err)
	}
	image := []byte(strings.Repeat("carried image ", 4096))
	s.DeployProgram("tour", func(ctx *agent.Context) error {
		err := agent.RunItinerary(ctx, func(ctx *agent.Context) error {
			if code := ctx.Briefcase().Ensure(briefcase.FolderCode); code.Len() == 1 {
				code.Append(image)
			}
			return nil
		})
		if err != nil {
			return err
		}
		return ctx.Activate("tacoma://h1//collector", briefcase.New())
	})
	itinerary := []string{"h2", "h3", "h4", "h2", "h4", "h3", "h2", "h3", "h4", "h3", "h2", "h1"}

	hashed := func() map[string]int64 {
		out := map[string]int64{}
		for _, h := range hosts {
			n, _ := s.Node(h)
			out[h] = n.FW.Telemetry().Registry().Counter("fw.core_hashed", "host", h).Value()
		}
		return out
	}
	tour := func() map[string]int64 {
		t.Helper()
		before := hashed()
		bc := briefcase.New()
		for _, h := range itinerary {
			bc.Ensure(briefcase.FolderHosts).AppendString("tacoma://" + h + "//vm_go")
		}
		if _, err := home.VM.Launch(s.SystemPrincipal.Name(), "tourist", "tour", bc); err != nil {
			t.Fatal(err)
		}
		if _, err := collector.Recv(10 * time.Second); err != nil {
			t.Fatalf("tour did not come home: %v", err)
		}
		after := hashed()
		for h := range after {
			after[h] -= before[h]
		}
		return after
	}

	if first := tour(); first["h1"] != 1 || first["h2"] != 1 || first["h3"] != 1 || first["h4"] != 1 {
		t.Errorf("first tour hashed: %v, want every host exactly once", first)
	}
	if second := tour(); second["h1"]+second["h2"]+second["h3"]+second["h4"] != 0 {
		t.Errorf("second tour hashed: %v, want no host", second)
	}

	s.Net.Crash("h3")
	s.Net.Restart("h3")
	if third := tour(); third["h3"] != 1 || third["h1"]+third["h2"]+third["h4"] != 0 {
		t.Errorf("tour after h3's restart hashed: %v, want h3 once and no other host", third)
	}
	for _, n := range s.Nodes() {
		if a, e := fwCount(n, "fw.auth_failures"), fwCount(n, "fw.errors"); a != 0 || e != 0 {
			t.Errorf("%s: auth failures %d, errors %d", n.Name, a, e)
		}
	}
}
