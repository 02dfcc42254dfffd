package vm_test

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/simnet"
	"tax/internal/vm"
)

// site is one host: firewall + vm_go, over an arbitrary transport.
type site struct {
	fw  *firewall.Firewall
	gvm *vm.GoVM
	reg *vm.Registry
}

func newSimSite(t *testing.T, net_ *simnet.Network, trust *identity.TrustStore, signer *identity.Principal, name string) *site {
	t.Helper()
	host, err := net_.AddHost(name)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := firewall.New(firewall.Config{
		HostName:        name,
		Node:            host,
		Trust:           trust,
		SystemPrincipal: "system",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fw.Close() })
	reg := &vm.Registry{}
	gvm, err := vm.New(vm.Config{FW: fw, Programs: reg, Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gvm.Close() })
	return &site{fw: fw, gvm: gvm, reg: reg}
}

func trustWithSystem(t *testing.T) (*identity.TrustStore, *identity.Principal) {
	t.Helper()
	sys, err := identity.NewPrincipal("system")
	if err != nil {
		t.Fatal(err)
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(sys, identity.System)
	return trust, sys
}

func TestLaunchUnknownProgram(t *testing.T) {
	net_ := simnet.New(simnet.LAN100)
	t.Cleanup(func() { _ = net_.Close() })
	trust, sys := trustWithSystem(t)
	s := newSimSite(t, net_, trust, sys, "h1")
	if _, err := s.gvm.Launch("system", "x", "ghost-program", nil); !errors.Is(err, vm.ErrUnknownProgram) {
		t.Errorf("err = %v, want ErrUnknownProgram", err)
	}
}

func TestVMCloseStopsAgents(t *testing.T) {
	net_ := simnet.New(simnet.LAN100)
	t.Cleanup(func() { _ = net_.Close() })
	trust, sys := trustWithSystem(t)
	s := newSimSite(t, net_, trust, sys, "h1")

	stopped := make(chan error, 1)
	s.reg.Register("waiter", func(ctx *agent.Context) error {
		_, err := ctx.Await(0)
		stopped <- err
		return err
	})
	if _, err := s.gvm.Launch("system", "w", "waiter", nil); err != nil {
		t.Fatal(err)
	}
	if got := len(s.gvm.Agents()); got != 1 {
		t.Fatalf("agents = %d", got)
	}
	if err := s.gvm.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, firewall.ErrKilled) {
			t.Errorf("agent stopped with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the agent running")
	}
	if _, err := s.gvm.Launch("system", "late", "waiter", nil); !errors.Is(err, vm.ErrClosed) {
		t.Errorf("launch after close = %v", err)
	}
	// Idempotent.
	if err := s.gvm.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestMigrationOverRealTCP(t *testing.T) {
	// Two firewalls over real sockets; an agent migrates between them —
	// the cmd/taxd deployment path, in-process.
	trust, sys := trustWithSystem(t)
	mkTCP := func() *site {
		t.Helper()
		node, err := simnet.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		host, portStr, err := net.SplitHostPort(node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := firewall.New(firewall.Config{
			HostName:        host,
			Port:            port,
			Node:            node,
			Trust:           trust,
			SystemPrincipal: "system",
			Resolve: func(h string, p int) (string, error) {
				return net.JoinHostPort(h, strconv.Itoa(p)), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fw.Close() })
		reg := &vm.Registry{}
		gvm, err := vm.New(vm.Config{FW: fw, Programs: reg, Signer: sys})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = gvm.Close() })
		return &site{fw: fw, gvm: gvm, reg: reg}
	}
	a := mkTCP()
	b := mkTCP()

	done := make(chan string, 1)
	prog := func(ctx *agent.Context) error {
		hosts, err := ctx.Briefcase().Folder(briefcase.FolderHosts)
		if err != nil {
			return err
		}
		next, ok := hosts.Pop()
		if !ok {
			done <- ctx.Host()
			return nil
		}
		if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
			return err
		}
		return errors.New("tcp move failed")
	}
	a.reg.Register("sock-roamer", prog)
	b.reg.Register("sock-roamer", prog)

	bHost := b.fw.HostName()
	bURI := "tacoma://" + bHost
	// Carry the non-default port explicitly.
	if u := b.fw; u != nil {
		bURI = "tacoma://" + bHost + ":" + strconv.Itoa(portOf(t, b)) + "//vm_go"
	}
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderHosts).AppendString(bURI)
	if _, err := a.gvm.Launch("system", "roamer", "sock-roamer", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case host := <-done:
		if host != bHost {
			t.Errorf("finished on %q, want %q", host, bHost)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TCP migration stalled")
	}
}

// portOf extracts the firewall's port from its own registration URI.
func portOf(t *testing.T, s *site) int {
	t.Helper()
	reg, err := s.fw.Register("test", "system", "port-probe")
	if err != nil {
		t.Fatal(err)
	}
	defer s.fw.Unregister(reg)
	return reg.GlobalURI().EffectivePort()
}

func TestRejectionReported(t *testing.T) {
	net_ := simnet.New(simnet.LAN100)
	t.Cleanup(func() { _ = net_.Close() })
	trust, sys := trustWithSystem(t)
	s := newSimSite(t, net_, trust, sys, "h1")

	// A transfer with an unknown program is rejected: the sender gets the
	// error report, and vm.rejected counts it.
	sender, err := s.fw.Register("test", "system", "sender")
	if err != nil {
		t.Fatal(err)
	}
	bc := briefcase.New()
	bc.SetString(briefcase.FolderCode, "ghost")
	bc.SetString(firewall.FolderKind, firewall.KindTransfer)
	bc.SetString(briefcase.FolderSysTarget, "vm_go")
	if err := s.fw.Send(sender.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	rep, err := sender.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if firewall.Kind(rep) != firewall.KindError {
		t.Errorf("report kind = %q", firewall.Kind(rep))
	}
	rejected := s.fw.Telemetry().Registry().Counter("vm.rejected", "host", "h1", "vm", "vm_go")
	if n := rejected.Value(); n != 1 {
		t.Errorf("vm.rejected = %d, want 1", n)
	}
}

func TestSpawnRefusalIsTyped(t *testing.T) {
	// The destination lacks the program: the parent's Spawn fails with an
	// error that matches the refusal's sentinel across the wire.
	net_ := simnet.New(simnet.LAN100)
	t.Cleanup(func() { _ = net_.Close() })
	trust, sys := trustWithSystem(t)
	h1 := newSimSite(t, net_, trust, sys, "h1")
	newSimSite(t, net_, trust, sys, "h2")

	res := make(chan error, 1)
	h1.reg.Register("parent", func(ctx *agent.Context) error {
		_, err := ctx.Spawn("tacoma://h2//vm_go")
		res <- err
		return nil
	})
	if _, err := h1.gvm.Launch("system", "parent", "parent", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-res:
		if !errors.Is(err, vm.ErrUnknownProgram) {
			t.Errorf("spawn err = %v, want ErrUnknownProgram", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("spawn never returned")
	}
}

func TestTransferWithoutCodeRejected(t *testing.T) {
	net_ := simnet.New(simnet.LAN100)
	t.Cleanup(func() { _ = net_.Close() })
	trust, sys := trustWithSystem(t)
	s := newSimSite(t, net_, trust, sys, "h1")

	sender, err := s.fw.Register("test", "system", "sender")
	if err != nil {
		t.Fatal(err)
	}
	bc := briefcase.New() // no CODE folder
	bc.SetString(firewall.FolderKind, firewall.KindTransfer)
	bc.SetString(briefcase.FolderSysTarget, "vm_go")
	if err := s.fw.Send(sender.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	rep, err := sender.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := rep.GetString(briefcase.FolderSysError)
	if !strings.Contains(msg, "CODE") {
		t.Errorf("rejection = %q", msg)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := vm.New(vm.Config{}); err == nil {
		t.Error("nil firewall accepted")
	}
	if _, err := vm.NewBin(vm.BinConfig{}); err == nil {
		t.Error("empty bin config accepted")
	}
	if _, err := vm.NewC(vm.CConfig{}); err == nil {
		t.Error("empty c config accepted")
	}
}
