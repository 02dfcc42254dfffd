package wrapper_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/firewall"
	"tax/internal/group"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/wrapper"
)

func newSystem(t *testing.T, hosts ...string) *core.System {
	t.Helper()
	s, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	for _, h := range hosts {
		opts := core.NodeOptions{NoCVM: true}
		opts.OnAgentDone = func(name string, err error) {
			if err != nil && !errors.Is(err, agent.ErrMoved) {
				t.Logf("agent %s finished with: %v", name, err)
			}
		}
		if _, err := s.AddNode(h, opts); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// recorder is a minimal wrapper that records the traffic it sees.
type recorder struct {
	tag string
	mu  sync.Mutex
	log []string
}

func (r *recorder) Name() string { return "rec:" + r.tag }
func (r *recorder) Init(ctx *agent.Context) error {
	r.add("init@" + ctx.Host())
	return nil
}
func (r *recorder) OnSend(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	r.add("send")
	return bc, nil
}
func (r *recorder) OnReceive(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	r.add("recv")
	return bc, nil
}
func (r *recorder) add(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, s)
}
func (r *recorder) events() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

// swallower consumes every send/receive.
type swallower struct{}

func (swallower) Name() string              { return "swallow" }
func (swallower) Init(*agent.Context) error { return nil }
func (swallower) OnSend(*agent.Context, *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return nil, nil
}
func (swallower) OnReceive(*agent.Context, *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return nil, nil
}

func TestStackOrdering(t *testing.T) {
	s := newSystem(t, "h1")
	n, _ := s.Node("h1")

	outer := &recorder{tag: "outer"}
	inner := &recorder{tag: "inner"}
	var order []string
	var mu sync.Mutex
	note := func(tag, ev string) {
		mu.Lock()
		order = append(order, tag+":"+ev)
		mu.Unlock()
	}
	outerW := &hookWrapper{name: "outer", note: note}
	innerW := &hookWrapper{name: "inner", note: note}
	_ = outer
	_ = inner

	done := make(chan struct{})
	n.Programs.Register("svc", func(ctx *agent.Context) error {
		req, err := ctx.Await(5 * time.Second)
		if err != nil {
			return err
		}
		return ctx.Reply(req, briefcase.New())
	})
	n.Programs.Register("wrapped", func(ctx *agent.Context) error {
		defer close(done)
		stack := wrapper.NewStack(outerW, innerW)
		if err := stack.Install(ctx); err != nil {
			return err
		}
		req := briefcase.New()
		if _, err := ctx.Meet("system/svc", req, 5*time.Second); err != nil {
			return err
		}
		return nil
	})
	if _, err := n.VM.Launch("system", "svc", "svc", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.VM.Launch("system", "wrapped", "wrapped", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wrapped agent stalled")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"inner:send", "outer:send", "outer:recv", "inner:recv"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("interception order = %v, want %v", order, want)
	}
}

// hookWrapper reports send/recv events through a callback.
type hookWrapper struct {
	name string
	note func(tag, ev string)
}

func (h *hookWrapper) Name() string              { return h.name }
func (h *hookWrapper) Init(*agent.Context) error { return nil }
func (h *hookWrapper) OnSend(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	h.note(h.name, "send")
	return bc, nil
}
func (h *hookWrapper) OnReceive(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	h.note(h.name, "recv")
	return bc, nil
}

func TestSwallowedSendNeverRoutes(t *testing.T) {
	s := newSystem(t, "h1")
	n, _ := s.Node("h1")
	sent := make(chan error, 1)
	n.Programs.Register("mute", func(ctx *agent.Context) error {
		if err := wrapper.NewStack(swallower{}).Install(ctx); err != nil {
			return err
		}
		bc := briefcase.New()
		sent <- ctx.Activate("system/nowhere", bc)
		return nil
	})
	before := n.FW.Stats()
	if _, err := n.VM.Launch("system", "mute", "mute", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Errorf("swallowed send errored: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent stalled")
	}
	after := n.FW.Stats()
	if after.Queued != before.Queued || after.Delivered != before.Delivered {
		t.Error("swallowed send reached the firewall")
	}
}

func TestWrapperStackTravels(t *testing.T) {
	// A stack named in _WRAP is rebuilt from the destination's registry
	// after a move: the recorder Inits once per host.
	s := newSystem(t, "h1", "h2")
	var mu sync.Mutex
	var inits []string
	s.DeployWrapper("rec:travel", func() wrapper.Wrapper {
		return &initRecorder{onInit: func(h string) {
			mu.Lock()
			inits = append(inits, h)
			mu.Unlock()
		}}
	})
	done := make(chan struct{})
	prog := func(ctx *agent.Context) error {
		if ctx.Host() == "h1" {
			if err := ctx.Go("tacoma://h2//vm_go"); errors.Is(err, agent.ErrMoved) {
				return err
			}
			return errors.New("move failed")
		}
		close(done)
		return nil
	}
	s.DeployProgram("traveller", prog)
	n1, _ := s.Node("h1")

	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString("rec:travel")
	if _, err := n1.VM.Launch("system", "traveller", "traveller", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("traveller stalled")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(inits) != 2 || inits[0] != "h1" || inits[1] != "h2" {
		t.Errorf("wrapper inits = %v, want [h1 h2]", inits)
	}
}

type initRecorder struct{ onInit func(host string) }

func (i *initRecorder) Name() string { return "rec:travel" }
func (i *initRecorder) Init(ctx *agent.Context) error {
	i.onInit(ctx.Host())
	return nil
}
func (i *initRecorder) OnSend(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return bc, nil
}
func (i *initRecorder) OnReceive(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return bc, nil
}

func TestUnknownTravellingWrapperRejected(t *testing.T) {
	s := newSystem(t, "h1", "h2")
	// Deploy only on h1.
	n1, _ := s.Node("h1")
	n1.Wrappers.Register("exotic", func() wrapper.Wrapper { return &initRecorder{onInit: func(string) {}} })

	moved := make(chan error, 1)
	s.DeployProgram("mover", func(ctx *agent.Context) error {
		if ctx.Host() == "h1" {
			err := ctx.Go("tacoma://h2//vm_go")
			moved <- err
			return err
		}
		t.Error("agent ran on h2 despite missing wrapper")
		return nil
	})
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString("exotic")
	if _, err := n1.VM.Launch("system", "mover", "mover", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-moved:
		if !errors.Is(err, agent.ErrMoved) {
			t.Fatalf("move transport failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mover stalled")
	}
	// The activation on h2 fails in PreLaunch; nothing left running there.
	time.Sleep(100 * time.Millisecond)
	n2, _ := s.Node("h2")
	for _, in := range n2.FW.List() {
		if in.URI.Name == "mover" {
			t.Error("agent with unknown wrapper activated on h2")
		}
	}
}

func TestMonitorWrapperReportsAndAnswersStatus(t *testing.T) {
	s := newSystem(t, "home", "remote")
	home, _ := s.Node("home")

	// Launch the monitoring tool (ag_monitor) at home.
	events := launchMonitor(t, home)

	s.DeployWrapper("monitor:job", func() wrapper.Wrapper {
		return &wrapper.Monitor{MonitorURI: "tacoma://home//ag_monitor", Subject: "job"}
	})
	s.DeployProgram("jobprog", func(ctx *agent.Context) error {
		ctx.Briefcase().Ensure(briefcase.FolderStatus).AppendString("phase-1 done")
		if ctx.Host() == "home" {
			if err := ctx.Go("tacoma://remote//vm_go"); errors.Is(err, agent.ErrMoved) {
				return err
			}
		}
		// Stay alive to answer status queries.
		_, err := ctx.Await(2 * time.Second)
		if err != nil && !errors.Is(err, firewall.ErrRecvTimeout) {
			return err
		}
		return nil
	})

	bc := briefcase.New()
	bc.Ensure(briefcase.FolderSysWrap).AppendString("monitor:job")
	if _, err := home.VM.Launch("system", "job", "jobprog", bc); err != nil {
		t.Fatal(err)
	}

	// The monitor hears: arrived@home, moving, arrived@remote.
	var got []string
	timeout := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case ev := <-events:
			got = append(got, ev.Host+"/"+ev.Status)
		case <-timeout:
			t.Fatalf("monitor reports so far: %v", got)
		}
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{"home/job: arrived", "job: moving to", "remote/job: arrived"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing report %q in:\n%s", want, joined)
		}
	}

	// Query status: the wrapper answers; the agent never sees it.
	admin, err := home.FW.Register("test", "system", "querier")
	if err != nil {
		t.Fatal(err)
	}
	q := briefcase.New()
	q.SetString(briefcase.FolderSysTarget, "tacoma://remote/system/job")
	q.SetString(wrapper.FolderWrapOp, wrapper.WrapOpStatus)
	q.SetString(firewall.FolderMsgID, "q1")
	if err := home.FW.Send(admin.GlobalURI(), q); err != nil {
		t.Fatal(err)
	}
	resp, err := admin.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("no status reply: %v", err)
	}
	host, _ := resp.GetString("HOST")
	if host != "remote" {
		t.Errorf("status HOST = %q", host)
	}
	f, err := resp.Folder(briefcase.FolderStatus)
	if err != nil || !strings.Contains(strings.Join(f.Strings(), ","), "phase-1 done") {
		t.Errorf("status = %v, %v", f, err)
	}
}

// launchMonitor starts ag_monitor on a node and returns its event stream.
func launchMonitor(t *testing.T, n *core.Node) <-chan services.MonitorEvent {
	t.Helper()
	handler, events := services.NewAgMonitor(64)
	n.Programs.Register("ag_monitor", handler)
	if _, err := n.VM.Launch("system", "ag_monitor", "ag_monitor", nil); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestLocationTransparentWrapper runs the wrapper on a three-member
// directory plane and crashes the name's owner once the moved agent has
// bound its name: the sender still reaches it through replica failover.
func TestLocationTransparentWrapper(t *testing.T) {
	const name = "stable-target"
	s := newSystem(t, "home", "h2")
	home, _ := s.Node("home")
	plane := []string{"d1", "d2", "d3"}
	ring, err := s.EnableDirectory(core.DirectoryConfig{Nodes: plane, AckTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range plane {
		if _, err := s.AddNode(h, core.NodeOptions{NoCVM: true}); err != nil {
			t.Fatal(err)
		}
	}
	client, err := s.DirectoryClient()
	if err != nil {
		t.Fatal(err)
	}
	// The registry key must equal the wrapper's Name() so the _WRAP
	// folder resolves after a move.
	s.DeployWrapper("loctrans:"+name, func() wrapper.Wrapper {
		return &wrapper.LocationTransparent{Client: client, SelfName: name}
	})

	received := make(chan string, 1)
	s.DeployProgram("target", func(ctx *agent.Context) error {
		// Move once, then wait for mail addressed to the stable name.
		if ctx.Host() == "home" {
			if err := ctx.Go("tacoma://h2//vm_go"); errors.Is(err, agent.ErrMoved) {
				return err
			}
		}
		bc, err := ctx.Await(5 * time.Second)
		if err != nil {
			received <- "err:" + err.Error()
			return err
		}
		body, _ := bc.GetString("BODY")
		received <- body
		return nil
	})
	tb := briefcase.New()
	tb.Ensure(briefcase.FolderSysWrap).AppendString("loctrans:" + name)
	if _, err := home.VM.Launch("system", "roamer", "target", tb); err != nil {
		t.Fatal(err)
	}

	// Wait until the plane serves the post-move binding, then crash the
	// name's owner: the binding survives on its replica.
	reg, err := home.FW.Register("test", "system", "probe")
	if err != nil {
		t.Fatal(err)
	}
	probe := agent.NewContext(home.FW, reg, briefcase.New(), nil, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		loc, err := client.Lookup(probe, name)
		if err == nil && strings.Contains(loc, "h2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("binding never updated: %q (err %v)", loc, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Net.Crash(ring.Owner(name))

	// A sender wrapped with a resolving wrapper reaches the moved agent
	// by its stable name.
	s.DeployProgram("sender", func(ctx *agent.Context) error {
		stack := wrapper.NewStack(&wrapper.LocationTransparent{
			Client:  client,
			Resolve: map[string]bool{name: true},
		})
		if err := stack.Install(ctx); err != nil {
			return err
		}
		bc := briefcase.New()
		bc.SetString("BODY", "found you")
		return ctx.Activate(name, bc)
	})
	if _, err := home.VM.Launch("system", "sender", "sender", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-received:
		if got != "found you" {
			t.Errorf("received %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("location-transparent send lost")
	}
}

func TestGroupWrapperFIFOBroadcast(t *testing.T) {
	s := newSystem(t, "h1", "h2", "h3")
	const groupName = "readers"
	const sends = 5

	type memberResult struct {
		id   string
		msgs []string
	}
	results := make(chan memberResult, 3)
	// The sender waits until every member has installed its group
	// wrapper: a message reaching a member before its boot briefcase
	// would be taken for the boot.
	var installed sync.WaitGroup
	installed.Add(3) // one per member below

	members := []string{
		"tacoma://h1/system/m1:1100",
		"tacoma://h2/system/m2:1100",
		"tacoma://h3/system/m3:1100",
	}
	_ = members
	// Instance numbers are allocated dynamically, so bind membership
	// after launch: launch agents that wait for a GO briefcase carrying
	// the membership list, then install the wrapper.
	mkMember := func(idx int, sender bool) func(ctx *agent.Context) error {
		return func(ctx *agent.Context) error {
			release := sync.OnceFunc(installed.Done)
			defer release()
			boot, err := ctx.Await(5 * time.Second)
			if err != nil {
				return err
			}
			memberList, err := boot.Folder("MEMBERS")
			if err != nil {
				return err
			}
			ms := memberList.Strings()
			g := &wrapper.Group{
				GroupName: groupName,
				Members:   ms,
				Self:      ctx.URI().String(),
				Ordering:  group.FIFO,
			}
			if err := wrapper.NewStack(g).Install(ctx); err != nil {
				return err
			}
			release()
			if sender {
				installed.Wait()
				for i := 0; i < sends; i++ {
					bc := briefcase.New()
					bc.SetString("BODY", string(rune('a'+i)))
					if err := ctx.Activate(groupName, bc); err != nil {
						return err
					}
				}
			}
			var got []string
			for len(got) < sends {
				bc, err := ctx.Await(5 * time.Second)
				if err != nil {
					break
				}
				body, _ := bc.GetString("BODY")
				got = append(got, body)
			}
			results <- memberResult{id: ctx.URI().String(), msgs: got}
			return nil
		}
	}

	var regs []string
	for i, h := range []string{"h1", "h2", "h3"} {
		n, _ := s.Node(h)
		name := "m" + string(rune('1'+i))
		n.Programs.Register(name, mkMember(i, i == 0))
		reg, err := n.VM.Launch("system", name, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg.GlobalURI().String())
	}
	// Send the membership to every member.
	for i, h := range []string{"h1", "h2", "h3"} {
		n, _ := s.Node(h)
		admin, err := n.FW.Register("test", "system", "boot"+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		boot := briefcase.New()
		boot.SetString(briefcase.FolderSysTarget, regs[i])
		boot.Ensure("MEMBERS").AppendString(regs...)
		if err := n.FW.Send(admin.GlobalURI(), boot); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			want := "a,b,c,d,e"
			if strings.Join(r.msgs, ",") != want {
				t.Errorf("member %s got %v, want %s", r.id, r.msgs, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("group members stalled")
		}
	}
}
