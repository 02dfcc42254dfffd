package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/vm"
)

// TestBinaryAgentItinerary moves a signed binary agent across hosts via
// vm_bin: the full native-code-mobility simulation — carried image,
// per-host verification, onward moves re-signed.
func TestBinaryAgentItinerary(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1", "h2", "h3")
	var mu sync.Mutex
	var visited []string
	done := make(chan struct{})

	handler := func(ctx *agent.Context) error {
		mu.Lock()
		visited = append(visited, ctx.Host())
		mu.Unlock()
		hosts, err := ctx.Briefcase().Folder(briefcase.FolderHosts)
		if err != nil {
			close(done)
			return err
		}
		next, ok := hosts.Pop()
		if !ok {
			close(done)
			return nil
		}
		if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
			return err
		}
		close(done)
		return errors.New("move failed")
	}
	s.DeployBinary("roambin", "1.0", 8<<10, func(n *Node) vm.Handler { return handler })

	n1, _ := s.Node("h1")
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderHosts).AppendString(
		"tacoma://h2//vm_bin",
		"tacoma://h3//vm_bin",
	)
	if _, err := n1.BinVM.Launch("system", "roamer", "roambin", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("binary itinerary stalled")
	}
	mu.Lock()
	defer mu.Unlock()
	want := "h1,h2,h3"
	if got := strings.Join(visited, ","); got != want {
		t.Errorf("visited %s, want %s", got, want)
	}
}

// TestHeterogeneousArchitectures is §5's multi-architecture story: the
// agent submits a list of binaries matching different architectures and
// each host's vm_bin extracts the one matching the local machine.
func TestHeterogeneousArchitectures(t *testing.T) {
	s := newSystem(t, NodeOptions{})
	sparc, err := s.AddNode("sparc-host", NodeOptions{Arch: "sparc-sunos5"})
	if err != nil {
		t.Fatal(err)
	}
	intel, err := s.AddNode("intel-host", NodeOptions{Arch: "i386-linux"})
	if err != nil {
		t.Fatal(err)
	}

	type report struct{ host, arch string }
	ran := make(chan report, 2)
	mk := func(n *Node) vm.Handler {
		return func(ctx *agent.Context) error {
			ran <- report{host: ctx.Host(), arch: n.Arch}
			hosts, err := ctx.Briefcase().Folder(briefcase.FolderHosts)
			if err != nil {
				return nil
			}
			if next, ok := hosts.Pop(); ok {
				if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
					return err
				}
			}
			return nil
		}
	}
	// Each node deploys its own architecture's image of the program.
	for _, n := range []*Node{sparc, intel} {
		n.Binaries.Deploy(vm.Binary{
			Name: "polyglot", Arch: n.Arch, Version: "1.0",
			Payload: vm.SyntheticImage("polyglot", n.Arch, "1.0", 4096),
			Handler: mk(n),
		})
	}

	// The briefcase carries BOTH images; each vm_bin picks its own.
	bc := briefcase.New()
	for _, arch := range []string{"sparc-sunos5", "i386-linux"} {
		vm.PackBinaries(bc, vm.Binary{
			Name: "polyglot", Arch: arch, Version: "1.0",
			Payload: vm.SyntheticImage("polyglot", arch, "1.0", 4096),
		})
	}
	bc.Ensure(briefcase.FolderHosts).AppendString("tacoma://intel-host//vm_bin")
	if _, err := sparc.BinVM.Launch("system", "poly", "polyglot", bc); err != nil {
		t.Fatal(err)
	}
	var got []report
	for len(got) < 2 {
		select {
		case r := <-ran:
			got = append(got, r)
		case <-time.After(10 * time.Second):
			t.Fatalf("multi-arch itinerary stalled after %v", got)
		}
	}
	if got[0].arch != "sparc-sunos5" || got[1].arch != "i386-linux" {
		t.Errorf("architectures: %+v", got)
	}
}

// TestDeployBinaryImageOncePerArch: nodes of one architecture share one
// computed image, byte-equal to vm.SyntheticImage, while each keeps its
// own handler; a node of another architecture gets that architecture's
// image.
func TestDeployBinaryImageOncePerArch(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "s1", "s2")
	if _, err := s.AddNode("i1", NodeOptions{Arch: "i386-linux"}); err != nil {
		t.Fatal(err)
	}
	handlers := map[string]bool{}
	s.DeployBinary("shared", "1.0", 4096, func(n *Node) vm.Handler {
		handlers[n.Name] = true
		return func(*agent.Context) error { return nil }
	})
	if len(handlers) != 3 {
		t.Fatalf("handlers built for %v, want one per node", handlers)
	}
	resolve := func(host string) vm.Binary {
		t.Helper()
		n, _ := s.Node(host)
		b, ok := n.Binaries.Resolve("shared", n.Arch)
		if !ok {
			t.Fatalf("%s: binary not deployed for %s", host, n.Arch)
		}
		return b
	}
	s1, s2, i1 := resolve("s1"), resolve("s2"), resolve("i1")
	want := vm.SyntheticImage("shared", vm.DefaultArch, "1.0", 4096)
	if !bytes.Equal(s1.Payload, want) || !bytes.Equal(s2.Payload, want) {
		t.Fatal("same-architecture payloads differ from SyntheticImage")
	}
	if &s1.Payload[0] != &s2.Payload[0] {
		t.Error("same-architecture nodes hold separately computed images, want one")
	}
	if !bytes.Equal(i1.Payload, vm.SyntheticImage("shared", "i386-linux", "1.0", 4096)) {
		t.Error("second architecture's payload is not its own SyntheticImage")
	}
	if bytes.Equal(i1.Payload, want) {
		t.Error("second architecture got the first architecture's image")
	}
}

// TestDeployBinaryConcurrentSystems: two systems deploying the same
// binary at once, the first to ask for its image, both get the one
// image, byte-equal on every node. Under -race this is the memo's
// concurrency check.
func TestDeployBinaryConcurrentSystems(t *testing.T) {
	systems := []*System{newSystem(t, NodeOptions{NoCVM: true}, "a1", "a2"), newSystem(t, NodeOptions{NoCVM: true}, "b1")}
	var wg sync.WaitGroup
	for _, s := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.DeployBinary("concurrent", "1.0", 8192, func(*Node) vm.Handler {
				return func(*agent.Context) error { return nil }
			})
		}()
	}
	wg.Wait()
	want := vm.SyntheticImage("concurrent", vm.DefaultArch, "1.0", 8192)
	for _, s := range systems {
		for _, n := range s.Nodes() {
			if b, ok := n.Binaries.Resolve("concurrent", n.Arch); !ok || !bytes.Equal(b.Payload, want) {
				t.Errorf("%s: deployed payload differs from SyntheticImage (deployed %v)", n.Name, ok)
			}
		}
	}
}

// TestInstancePinnedConversation keeps talking to one specific instance
// among several same-named agents (§3.2: "The instance number may be
// used if one wishes to make sure one continues to communicate with the
// same entity").
func TestInstancePinnedConversation(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1")
	n, _ := s.Node("h1")

	mkEcho := func(id string) vm.Handler {
		return func(ctx *agent.Context) error {
			for {
				req, err := ctx.Await(0)
				if err != nil {
					return nil
				}
				resp := briefcase.New()
				resp.SetString("WHO", id)
				if err := ctx.Reply(req, resp); err != nil {
					return err
				}
			}
		}
	}
	n.Programs.Register("echoA", mkEcho("A"))
	n.Programs.Register("echoB", mkEcho("B"))
	// Two agents with the SAME registration name, different programs.
	regA, err := n.VM.Launch("system", "svc", "echoA", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.VM.Launch("system", "svc", "echoB", nil); err != nil {
		t.Fatal(err)
	}

	caller, err := n.FW.Register("test", "system", "caller")
	if err != nil {
		t.Fatal(err)
	}
	ctx := agent.NewContext(n.FW, caller, briefcase.New(), nil, nil)
	// Pin to instance A for several rounds.
	target := fmt.Sprintf("system/svc:%x", regA.URI().Instance)
	for i := 0; i < 5; i++ {
		resp, err := ctx.Meet(target, briefcase.New(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if who, _ := resp.GetString("WHO"); who != "A" {
			t.Fatalf("round %d reached %q", i, who)
		}
	}
}

// TestSpawnLocal forks an agent onto the same host's VM.
func TestSpawnLocal(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1")
	n, _ := s.Node("h1")
	ran := make(chan uint64, 2)
	n.Programs.Register("selfforker", func(ctx *agent.Context) error {
		if !ctx.Briefcase().Has("CHILD") {
			ctx.Briefcase().SetString("CHILD", "1")
			inst, err := ctx.Spawn("vm_go")
			if err != nil {
				t.Errorf("spawn: %v", err)
			}
			ran <- inst
			return nil
		}
		ran <- ctx.URI().Instance
		return nil
	})
	if _, err := n.VM.Launch("system", "forker", "selfforker", nil); err != nil {
		t.Fatal(err)
	}
	var reported, actual uint64
	for i := 0; i < 2; i++ {
		select {
		case v := <-ran:
			if reported == 0 {
				reported = v
			} else {
				actual = v
			}
		case <-time.After(5 * time.Second):
			t.Fatal("local spawn stalled")
		}
	}
	// One value is the parent's view of the child instance, the other is
	// the child's own; they must agree.
	if reported != actual {
		t.Errorf("instance mismatch: %x vs %x", reported, actual)
	}
}

// TestQueueTimeoutAcrossHosts: a message to an agent that never arrives
// on a remote host expires there and the error report crosses back.
func TestQueueTimeoutAcrossHosts(t *testing.T) {
	s := newSystem(t, NodeOptions{QueueTimeout: 200 * time.Millisecond}, "h1", "h2")
	n1, _ := s.Node("h1")

	sender, err := n1.FW.Register("test", "system", "sender")
	if err != nil {
		t.Fatal(err)
	}
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/system/never-arrives")
	bc.SetString("BODY", "hello?")
	if err := n1.FW.Send(sender.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	rep, err := sender.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("no expiry report: %v", err)
	}
	if firewall.Kind(rep) != firewall.KindError {
		t.Errorf("kind = %s", firewall.Kind(rep))
	}
	msg, _ := rep.GetString(briefcase.FolderSysError)
	if !strings.Contains(msg, "expired") {
		t.Errorf("report = %q", msg)
	}
}

// TestAgCabinetAliasServesFiles exercises the second file service name.
func TestAgCabinetAliasServesFiles(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1")
	n, _ := s.Node("h1")
	reg, err := n.FW.Register("test", "system", "caller")
	if err != nil {
		t.Fatal(err)
	}
	ctx := agent.NewContext(n.FW, reg, briefcase.New(), nil, nil)
	req := briefcase.New()
	req.SetString("_SVCOP", "put")
	req.SetString("_PATH", "/cab/x")
	req.Ensure("_DATA").AppendString("in the cabinet")
	if _, err := ctx.Meet("ag_cabinet", req, 5*time.Second); err != nil {
		t.Fatalf("cabinet put: %v", err)
	}
	get := briefcase.New()
	get.SetString("_SVCOP", "get")
	get.SetString("_PATH", "/cab/x")
	resp, err := ctx.Meet("ag_cabinet", get, 5*time.Second)
	if err != nil {
		t.Fatalf("cabinet get: %v", err)
	}
	f, err := resp.Folder("_DATA")
	if err != nil || f.Strings()[0] != "in the cabinet" {
		t.Errorf("cabinet contents: %v, %v", f, err)
	}
}

// TestSecureChannelsEndToEnd runs a full migration with signed
// inter-firewall frames: the itinerary completes, and an unsigned
// interloper's traffic is rejected.
func TestSecureChannelsEndToEnd(t *testing.T) {
	s := newSystem(t, NodeOptions{SecureChannels: true}, "h1", "h2")
	n1, _ := s.Node("h1")
	n2, _ := s.Node("h2")

	done := make(chan string, 1)
	s.DeployProgram("sec-tour", func(ctx *agent.Context) error {
		if ctx.Host() == "h1" {
			if err := ctx.Go("tacoma://h2//vm_go"); errors.Is(err, agent.ErrMoved) {
				return err
			}
			return errors.New("move failed")
		}
		done <- ctx.Host()
		return nil
	})
	if _, err := n1.VM.Launch("system", "sec", "sec-tour", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case host := <-done:
		if host != "h2" {
			t.Errorf("finished on %s", host)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("secure migration stalled")
	}

	// An interloper host with no firewall (raw transport) cannot inject.
	raw, err := s.Net.AddHost("interloper")
	if err != nil {
		t.Fatal(err)
	}
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/system/vm_go")
	bc.SetString(firewall.FolderKind, firewall.KindTransfer)
	bc.SetString(briefcase.FolderCode, "sec-tour")
	before := fwCount(n2, "fw.auth_failures")
	if err := raw.Send("h2", bc.Encode()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for fwCount(n2, "fw.auth_failures") == before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if fwCount(n2, "fw.auth_failures") == before {
		t.Error("unsigned injected frame not rejected")
	}
}

// TestFirewallStatsProgress sanity-checks the counters over a workload.
func TestFirewallStatsProgress(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1", "h2")
	n1, _ := s.Node("h1")
	n2, _ := s.Node("h2")

	n2.Programs.Register("sink", func(ctx *agent.Context) error {
		for {
			if _, err := ctx.Await(0); err != nil {
				return nil
			}
		}
	})
	if _, err := n2.VM.Launch("system", "sink", "sink", nil); err != nil {
		t.Fatal(err)
	}
	sender, err := n1.FW.Register("test", "system", "sender")
	if err != nil {
		t.Fatal(err)
	}
	const count = 20
	for i := 0; i < count; i++ {
		bc := briefcase.New()
		bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/system/sink")
		if err := n1.FW.Send(sender.GlobalURI(), bc); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fwCount(n2, "fw.delivered") < count && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := fwCount(n1, "fw.forwarded"); got < count {
		t.Errorf("h1 forwarded = %d", got)
	}
	if got := fwCount(n2, "fw.delivered"); got < count {
		t.Errorf("h2 delivered = %d", got)
	}
}
