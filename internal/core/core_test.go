package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/simnet"
	"tax/internal/telemetry"
	"tax/internal/uri"
	"tax/internal/vm"
)

func newSystem(t *testing.T, opts NodeOptions, hosts ...string) *System {
	t.Helper()
	s, err := NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	for _, h := range hosts {
		if _, err := s.AddNode(h, opts); err != nil {
			t.Fatalf("AddNode(%s): %v", h, err)
		}
	}
	return s
}

func TestNodeBootstrap(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1")
	n, err := s.Node("h1")
	if err != nil {
		t.Fatal(err)
	}
	infos := n.FW.List()
	var names []string
	for _, in := range infos {
		names = append(names, in.URI.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"vm_go", "vm_bin", "vm_c", "ag_cc", "ag_exec", "ag_fs", "ag_cabinet", "ag_cron"} {
		if !strings.Contains(joined, want) {
			t.Errorf("bootstrap missing %s (have %s)", want, joined)
		}
	}
	if _, err := s.Node("ghost"); err == nil {
		t.Error("unknown node resolved")
	}
	if got := len(s.Nodes()); got != 1 {
		t.Errorf("Nodes() len = %d", got)
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1")
	if _, err := s.AddNode("h1", NodeOptions{}); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestLaunchAndFinish(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1")
	n, _ := s.Node("h1")
	done := make(chan error, 1)
	n.Programs.Register("oneshot", func(ctx *agent.Context) error {
		ctx.Briefcase().SetString("RAN", "yes")
		return nil
	})
	var mu sync.Mutex
	n.VM2DoneHook(t, &mu, done)

	if _, err := n.VM.Launch("system", "job", "oneshot", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("agent finished with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent never finished")
	}
}

// VM2DoneHook is a test helper: core.Node has no done-callback after
// construction, so tests that need one poll the firewall listing instead.
func (n *Node) VM2DoneHook(t *testing.T, mu *sync.Mutex, done chan error) {
	t.Helper()
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			found := false
			for _, in := range n.FW.List() {
				if in.URI.Name == "job" {
					found = true
				}
			}
			if !found {
				done <- nil
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		done <- errors.New("agent still registered")
	}()
}

func TestFigure4Itinerary(t *testing.T) {
	// The hello-world agent of figure 4: pop the HOSTS folder, go() to
	// each VM in turn, terminate when the itinerary is empty — and
	// tolerate an unreachable host mid-itinerary.
	s := newSystem(t, NodeOptions{}, "h1", "h2", "h3")
	var mu sync.Mutex
	var visited []string
	var warnings []string
	finished := make(chan struct{})

	hello := func(ctx *agent.Context) error {
		mu.Lock()
		visited = append(visited, ctx.Host())
		mu.Unlock()
		hosts, err := ctx.Briefcase().Folder(briefcase.FolderHosts)
		if err != nil {
			close(finished)
			return err
		}
		for {
			next, ok := hosts.Pop()
			if !ok {
				close(finished)
				return nil // itinerary done: agent exits
			}
			err := ctx.Go(next.String())
			if errors.Is(err, agent.ErrMoved) {
				return err
			}
			mu.Lock()
			warnings = append(warnings, fmt.Sprintf("unable to reach %s", next))
			mu.Unlock()
		}
	}
	s.DeployProgram("hello_world", hello)

	bc := briefcase.New()
	bc.Ensure(briefcase.FolderHosts).AppendString(
		"tacoma://h2//vm_go",
		"tacoma://unreachable//vm_go", // failure injection mid-itinerary
		"tacoma://h3//vm_go",
		"tacoma://h1//vm_go",
	)
	n1, _ := s.Node("h1")
	if _, err := n1.VM.Launch("system", "hello", "hello_world", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("itinerary never completed")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"h1", "h2", "h3", "h1"}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "unreachable") {
		t.Errorf("warnings = %v", warnings)
	}
}

func TestMoveCarriesBriefcaseState(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1", "h2")
	results := make(chan []string, 1)
	worker := func(ctx *agent.Context) error {
		res := ctx.Briefcase().Ensure(briefcase.FolderResults)
		res.AppendString("mined@" + ctx.Host())
		if ctx.Host() == "h1" {
			if err := ctx.Go("tacoma://h2//vm_go"); errors.Is(err, agent.ErrMoved) {
				return err
			}
			return errors.New("move failed")
		}
		results <- res.Strings()
		return nil
	}
	s.DeployProgram("miner", worker)
	n1, _ := s.Node("h1")
	if _, err := n1.VM.Launch("system", "miner", "miner", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-results:
		if len(got) != 2 || got[0] != "mined@h1" || got[1] != "mined@h2" {
			t.Errorf("results = %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent never reported")
	}
}

func TestSpawnReportsInstance(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1", "h2")
	type report struct {
		inst uint64
		err  error
		host string
	}
	reports := make(chan report, 2)
	prog := func(ctx *agent.Context) error {
		if ctx.Host() == "h1" && !ctx.Briefcase().Has("CHILD") {
			ctx.Briefcase().SetString("CHILD", "1")
			inst, err := ctx.Spawn("tacoma://h2//vm_go")
			reports <- report{inst: inst, err: err, host: ctx.Host()}
			return nil
		}
		reports <- report{host: ctx.Host()}
		return nil
	}
	s.DeployProgram("forker", prog)
	n1, _ := s.Node("h1")
	if _, err := n1.VM.Launch("system", "forker", "forker", nil); err != nil {
		t.Fatal(err)
	}
	var parent, child *report
	for i := 0; i < 2; i++ {
		select {
		case r := <-reports:
			if r.host == "h1" {
				parent = &r
			} else {
				child = &r
			}
		case <-time.After(5 * time.Second):
			t.Fatal("spawn protocol stalled")
		}
	}
	if parent == nil || child == nil {
		t.Fatal("missing parent or child report")
	}
	if parent.err != nil {
		t.Fatalf("spawn error: %v", parent.err)
	}
	if parent.inst == 0 {
		t.Error("spawn reported zero instance")
	}
}

func TestFigure3Pipeline(t *testing.T) {
	// A toy-C agent activates through the full figure-3 chain:
	// vm_c → ag_cc → ag_exec (compiler) → vm_bin, every step a delivery
	// the firewall mediates and audits.
	tel := telemetry.New(telemetry.Options{Host: "h1", Events: true})
	s := newSystem(t, NodeOptions{Telemetry: tel}, "h1")
	n, _ := s.Node("h1")

	ran := make(chan string, 1)
	source := "// program: chello\nint agMain(briefcase bc) { displaySomehow(\"Hello world\"); }\n"
	// Pre-deploy the compiled form: same deterministic image the toy
	// compiler will produce, bound to this host's handler.
	compiled, err := vmCompiled(source, n.Arch)
	if err != nil {
		t.Fatal(err)
	}
	compiled.Handler = func(ctx *agent.Context) error {
		ran <- ctx.Host()
		return nil
	}
	n.Binaries.Deploy(compiled)

	// Deliver the C agent to vm_c the way a remote firewall would.
	bc := briefcase.New()
	bc.SetString(briefcase.FolderCode, source)
	bc.SetString(firewall.FolderKind, firewall.KindTransfer)
	bc.SetString(vm.FolderAgentName, "chello")
	bc.SetString(briefcase.FolderSysTarget, "vm_c")
	admin, err := n.FW.Register("test", "system", "launcher")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FW.Send(admin.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}

	// The audit log must show the figure's staging in order: (1) the
	// delivery to vm_c, (2) vm_c to ag_cc, (3) ag_cc to ag_exec, (5)
	// ag_exec's binary back to ag_cc, (6) on to vm_c, (7) vm_c to
	// vm_bin. A delivery is audited once the receiver holds the
	// briefcase, so the log is read in handoff order (Time, each local
	// hop a strictly later instant) and polled until step 7 is in.
	want := []string{"vm_c", "ag_cc", "ag_exec", "ag_cc", "vm_c", "vm_bin"}
	var got []string
	deadline := time.Now().Add(10 * time.Second)
	for {
		got = figure3Deliveries(t, tel.Events().Snapshot())
		if len(got) >= len(want) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("figure-3 deliveries = %v, want %v", got, want)
	}
	select {
	case host := <-ran:
		if host != "h1" {
			t.Errorf("agent ran on %s", host)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("compiled agent never ran")
	}
}

// figure3Deliveries lists, in handoff order, the agent names of the
// audited deliveries to the figure-3 parties.
func figure3Deliveries(t *testing.T, events []telemetry.Event) []string {
	t.Helper()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	var out []string
	for _, e := range events {
		if e.Type != telemetry.EventAllow {
			continue
		}
		u, err := uri.Parse(e.Target)
		if err != nil {
			t.Fatalf("audited target %q: %v", e.Target, err)
		}
		switch u.Name {
		case "vm_c", "ag_cc", "ag_exec", "vm_bin":
			out = append(out, u.Name)
		}
	}
	return out
}

// vmCompiled mirrors services.CompileBinary without importing services
// into the core test (avoiding an import cycle through the fixture).
func vmCompiled(source, arch string) (vm.Binary, error) {
	name := ""
	for _, line := range strings.Split(source, "\n") {
		line = strings.TrimSpace(line)
		if n, ok := strings.CutPrefix(line, "// program:"); ok {
			name = strings.TrimSpace(n)
			break
		}
	}
	if name == "" {
		return vm.Binary{}, errors.New("no program directive")
	}
	return vm.Binary{
		Name: name, Arch: arch, Version: "1.0",
		Payload: vm.SyntheticImage(name, arch, "1.0", 64<<10),
	}, nil
}

func TestBinaryAgentRejectedWithoutTrust(t *testing.T) {
	// vm_bin refuses a transfer signed by an untrusted principal.
	s := newSystem(t, NodeOptions{}, "h1", "h2")
	n1, _ := s.Node("h1")
	n2, _ := s.Node("h2")

	intruder, err := identity.NewPrincipal("intruder")
	if err != nil {
		t.Fatal(err)
	}
	s.Trust.AddPrincipal(intruder, identity.Untrusted) // known but untrusted

	img := vm.SyntheticImage("tool", n2.Arch, "1.0", 1024)
	n2.Binaries.Deploy(vm.Binary{
		Name: "tool", Arch: n2.Arch, Version: "1.0", Payload: img,
		Handler: func(*agent.Context) error { return nil },
	})

	bc := briefcase.New()
	vm.PackBinaries(bc, vm.Binary{Name: "tool", Arch: n2.Arch, Version: "1.0", Payload: img})
	bc.SetString(firewall.FolderKind, firewall.KindTransfer)
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2//vm_bin")
	firewall.SignCore(bc, intruder)

	sender, err := n1.FW.Register("test", "intruder", "dropper")
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.FW.Send(sender.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	rep, err := sender.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("no rejection report: %v", err)
	}
	if firewall.Kind(rep) != firewall.KindError {
		t.Fatalf("kind = %s", firewall.Kind(rep))
	}
	msg, _ := rep.GetString(briefcase.FolderSysError)
	if !strings.Contains(msg, "signature") && !strings.Contains(msg, "trust") {
		t.Errorf("rejection reason = %q", msg)
	}
}

func TestBypassSkipsFirewall(t *testing.T) {
	s := newSystem(t, NodeOptions{Bypass: true}, "h1")
	n, _ := s.Node("h1")

	got := make(chan string, 1)
	n.Programs.Register("peer", func(ctx *agent.Context) error {
		bc, err := ctx.Await(5 * time.Second)
		if err != nil {
			got <- "err:" + err.Error()
			return err
		}
		body, _ := bc.GetString("BODY")
		got <- body
		return nil
	})
	n.Programs.Register("pusher", func(ctx *agent.Context) error {
		bc := briefcase.New()
		bc.SetString("BODY", "direct")
		return ctx.Activate("system/peer", bc)
	})
	if _, err := n.VM.Launch("system", "peer", "peer", nil); err != nil {
		t.Fatal(err)
	}
	before := fwCount(n, "fw.delivered")
	if _, err := n.VM.Launch("system", "pusher", "pusher", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case body := <-got:
		if body != "direct" {
			t.Fatalf("got %q", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bypass delivery lost")
	}
	if after := fwCount(n, "fw.delivered"); after != before {
		t.Errorf("firewall mediated %d deliveries despite bypass", after-before)
	}
}

func TestMeetRPCBetweenAgents(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1")
	n, _ := s.Node("h1")

	n.Programs.Register("echo", func(ctx *agent.Context) error {
		for {
			req, err := ctx.Await(0)
			if err != nil {
				return nil
			}
			body, _ := req.GetString("BODY")
			resp := briefcase.New()
			resp.SetString("BODY", "echo:"+body)
			if err := ctx.Reply(req, resp); err != nil {
				return err
			}
		}
	})
	result := make(chan string, 1)
	n.Programs.Register("caller", func(ctx *agent.Context) error {
		req := briefcase.New()
		req.SetString("BODY", "ping")
		resp, err := ctx.Meet("system/echo", req, 5*time.Second)
		if err != nil {
			result <- "err:" + err.Error()
			return err
		}
		body, _ := resp.GetString("BODY")
		result <- body
		return nil
	})
	if _, err := n.VM.Launch("system", "echo", "echo", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.VM.Launch("system", "caller", "caller", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-result:
		if got != "echo:ping" {
			t.Errorf("meet result = %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("meet stalled")
	}
}

func TestUnknownProgramRejectedAtDestination(t *testing.T) {
	// h2 does not deploy the program: the transfer must be rejected and
	// the (already departed) agent's sender informed.
	s := newSystem(t, NodeOptions{}, "h1", "h2")
	n1, _ := s.Node("h1")
	n2, _ := s.Node("h2")
	n1.Programs.Register("rare", func(ctx *agent.Context) error {
		err := ctx.Go("tacoma://h2//vm_go")
		if errors.Is(err, agent.ErrMoved) {
			return err
		}
		return err
	})
	// Intentionally NOT deploying "rare" on h2.
	if _, err := n1.VM.Launch("system", "rare", "rare", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fwCount(n2, "fw.errors") > 0 || fwCount(n2, "fw.delivered") > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The agent must not be running anywhere.
	time.Sleep(50 * time.Millisecond)
	for _, node := range s.Nodes() {
		for _, in := range node.FW.List() {
			if in.URI.Name == "rare" {
				t.Errorf("ghost agent still registered on %s", node.Name)
			}
		}
	}
}

func TestPanickingAgentDoesNotKillVM(t *testing.T) {
	s := newSystem(t, NodeOptions{}, "h1")
	n, _ := s.Node("h1")
	n.Programs.Register("bomb", func(*agent.Context) error { panic("boom") })
	n.Programs.Register("calm", func(ctx *agent.Context) error { return nil })
	if _, err := n.VM.Launch("system", "bomb", "bomb", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// The VM survives and can still launch agents.
	if _, err := n.VM.Launch("system", "calm", "calm", nil); err != nil {
		t.Errorf("VM died with its agent: %v", err)
	}
}
