package agent_test

import (
	"errors"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/simnet"
	"tax/internal/uri"
)

// fixture is a single-host firewall with helpers for raw agent contexts.
type fixture struct {
	fw *firewall.Firewall
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	net := simnet.New(simnet.LAN100)
	t.Cleanup(func() { _ = net.Close() })
	host, err := net.AddHost("h1")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := identity.NewPrincipal("system")
	if err != nil {
		t.Fatal(err)
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(sys, identity.System)
	fw, err := firewall.New(firewall.Config{
		HostName:        "h1",
		Node:            host,
		Trust:           trust,
		SystemPrincipal: "system",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fw.Close() })
	return &fixture{fw: fw}
}

func (f *fixture) ctx(t *testing.T, name string) *agent.Context {
	t.Helper()
	reg, err := f.fw.Register("test", "system", name)
	if err != nil {
		t.Fatal(err)
	}
	return agent.NewContext(f.fw, reg, briefcase.New(), nil, nil)
}

func TestContextAccessors(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx(t, "me")
	if ctx.Host() != "h1" {
		t.Errorf("Host = %q", ctx.Host())
	}
	if ctx.Principal() != "system" {
		t.Errorf("Principal = %q", ctx.Principal())
	}
	if ctx.URI().Host != "h1" || ctx.URI().Name != "me" {
		t.Errorf("URI = %v", ctx.URI())
	}
	if ctx.FW() != f.fw {
		t.Error("FW accessor broken")
	}
	before := ctx.Now()
	ctx.Charge(time.Second)
	if ctx.Now()-before != time.Second {
		t.Errorf("Charge moved clock by %v", ctx.Now()-before)
	}
}

func TestActivateAwait(t *testing.T) {
	f := newFixture(t)
	a := f.ctx(t, "a")
	b := f.ctx(t, "b")
	bc := briefcase.New()
	bc.SetString("BODY", "ping")
	if err := a.Activate("system/b", bc); err != nil {
		t.Fatal(err)
	}
	got, err := b.Await(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := got.GetString("BODY"); body != "ping" {
		t.Errorf("body = %q", body)
	}
}

func TestActivateBadTarget(t *testing.T) {
	f := newFixture(t)
	a := f.ctx(t, "a")
	if err := a.Activate(":::bad", briefcase.New()); err == nil {
		t.Error("bad target accepted")
	}
}

func TestMeetBuffersUnrelatedTraffic(t *testing.T) {
	f := newFixture(t)
	caller := f.ctx(t, "caller")
	svc := f.ctx(t, "svc")
	noise := f.ctx(t, "noise")

	done := make(chan error, 1)
	go func() {
		req, err := svc.Await(5 * time.Second)
		if err != nil {
			done <- err
			return
		}
		// Unrelated message lands in the caller's mailbox before the
		// reply does.
		n := briefcase.New()
		n.SetString("BODY", "noise")
		if err := noise.Activate("system/caller", n); err != nil {
			done <- err
			return
		}
		time.Sleep(50 * time.Millisecond)
		resp := briefcase.New()
		resp.SetString("BODY", "reply")
		done <- svc.Reply(req, resp)
	}()

	resp, err := caller.Meet("system/svc", briefcase.New(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := resp.GetString("BODY"); body != "reply" {
		t.Errorf("meet returned %q", body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The buffered noise arrives on the next Await, not lost.
	buf, err := caller.Await(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := buf.GetString("BODY"); body != "noise" {
		t.Errorf("backlog returned %q", body)
	}
}

func TestMeetTimeout(t *testing.T) {
	f := newFixture(t)
	caller := f.ctx(t, "caller")
	_ = f.ctx(t, "mute") // never replies
	start := time.Now()
	_, err := caller.Meet("system/mute", briefcase.New(), 100*time.Millisecond)
	if !errors.Is(err, firewall.ErrRecvTimeout) {
		t.Errorf("err = %v, want ErrRecvTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout overshot")
	}
}

// TestMeetTimeoutWithBacklog: unrelated briefcases arriving all through
// a Meet go to the backlog without pushing its deadline out. The call
// times out on time, and every one of them is still there for Await.
func TestMeetTimeoutWithBacklog(t *testing.T) {
	f := newFixture(t)
	caller := f.ctx(t, "caller")
	_ = f.ctx(t, "mute") // never replies
	noise := f.ctx(t, "noise")
	const timeout = 300 * time.Millisecond
	stop, sent := make(chan struct{}), make(chan int, 1)
	go func() {
		n := 0
		defer func() { sent <- n }()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		// Bounded, so a Meet whose deadline moves with each arrival
		// fails the test instead of hanging it.
		quit := time.After(10 * timeout)
		for {
			select {
			case <-stop:
				return
			case <-quit:
				return
			case <-tick.C:
			}
			bc := briefcase.New()
			bc.SetString("BODY", "noise")
			if err := noise.Activate("system/caller", bc); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()
	start := time.Now()
	_, err := caller.Meet("system/mute", briefcase.New(), timeout)
	took := time.Since(start)
	close(stop)
	n := <-sent
	if !errors.Is(err, firewall.ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
	if took < timeout || took > timeout+500*time.Millisecond {
		t.Errorf("a %v Meet timed out after %v", timeout, took)
	}
	if n < 10 {
		t.Fatalf("only %d unrelated briefcases arrived during the Meet", n)
	}
	got := 0
	for ; ; got++ {
		if _, err := caller.Await(100 * time.Millisecond); err != nil {
			break
		}
	}
	if got != n {
		t.Errorf("Await returned %d of the %d unrelated briefcases", got, n)
	}
}

func TestMeetRemoteErrorSurfaced(t *testing.T) {
	f := newFixture(t)
	caller := f.ctx(t, "caller")
	svc := f.ctx(t, "svc")
	go func() {
		req, err := svc.Await(5 * time.Second)
		if err != nil {
			return
		}
		resp := briefcase.New()
		resp.SetString(firewall.FolderKind, firewall.KindError)
		resp.SetString(briefcase.FolderSysError, "deliberate failure")
		_ = svc.Reply(req, resp)
	}()
	resp, err := caller.Meet("system/svc", briefcase.New(), 5*time.Second)
	if err == nil {
		t.Fatal("remote error not surfaced")
	}
	if resp == nil {
		t.Fatal("error reply briefcase not returned")
	}
	if msg, _ := resp.GetString(briefcase.FolderSysError); msg != "deliberate failure" {
		t.Errorf("error body = %q", msg)
	}
}

func TestReplyWithoutSender(t *testing.T) {
	f := newFixture(t)
	a := f.ctx(t, "a")
	if err := a.Reply(briefcase.New(), briefcase.New()); err == nil {
		t.Error("reply to senderless request accepted")
	}
}

func TestGoWithoutMover(t *testing.T) {
	f := newFixture(t)
	a := f.ctx(t, "a")
	if err := a.Go("tacoma://h2//vm_go"); !errors.Is(err, agent.ErrNoMover) {
		t.Errorf("Go err = %v, want ErrNoMover", err)
	}
	if _, err := a.Spawn("tacoma://h2//vm_go"); !errors.Is(err, agent.ErrNoMover) {
		t.Errorf("Spawn err = %v, want ErrNoMover", err)
	}
}

func TestGoBadDestination(t *testing.T) {
	f := newFixture(t)
	reg, err := f.fw.Register("test", "system", "m")
	if err != nil {
		t.Fatal(err)
	}
	ctx := agent.NewContext(f.fw, reg, briefcase.New(), stubMover{}, nil)
	if err := ctx.Go("::::"); err == nil || errors.Is(err, agent.ErrMoved) {
		t.Errorf("bad destination: %v", err)
	}
	if _, err := ctx.Spawn("::::"); err == nil {
		t.Error("bad spawn destination accepted")
	}
}

// stubMover always succeeds.
type stubMover struct{}

func (stubMover) Move(*agent.Context, uri.URI, bool) (uint64, error) { return 42, nil }

func TestGoReturnsErrMovedOnSuccess(t *testing.T) {
	f := newFixture(t)
	reg, err := f.fw.Register("test", "system", "m")
	if err != nil {
		t.Fatal(err)
	}
	ctx := agent.NewContext(f.fw, reg, briefcase.New(), stubMover{}, nil)
	if err := ctx.Go("tacoma://h2//vm_go"); !errors.Is(err, agent.ErrMoved) {
		t.Errorf("Go = %v, want ErrMoved", err)
	}
	inst, err := ctx.Spawn("tacoma://h2//vm_go")
	if err != nil || inst != 42 {
		t.Errorf("Spawn = %d, %v", inst, err)
	}
}

func TestInterceptorsSwallowAndRewrite(t *testing.T) {
	f := newFixture(t)
	a := f.ctx(t, "a")
	b := f.ctx(t, "b")
	c := f.ctx(t, "c")

	// Rewrite: sends addressed to b are redirected to c.
	a.SetInterceptors(func(bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
		if tgt, _ := bc.GetString(briefcase.FolderSysTarget); tgt == "system/b" {
			bc.SetString(briefcase.FolderSysTarget, "system/c")
		}
		return bc, nil
	}, nil)
	msg := briefcase.New()
	msg.SetString("BODY", "redirected")
	if err := a.Activate("system/b", msg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Await(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := got.GetString("BODY"); body != "redirected" {
		t.Errorf("redirect failed: %q", body)
	}
	if _, ok := b.Registration().TryRecv(); ok {
		t.Error("original target still received")
	}

	// Receive hook consuming everything: Await times out even though a
	// message arrived.
	b.SetInterceptors(nil, func(*briefcase.Briefcase) (*briefcase.Briefcase, error) {
		return nil, nil
	})
	direct := briefcase.New()
	if err := c.Activate("system/b", direct); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Await(150 * time.Millisecond); !errors.Is(err, firewall.ErrRecvTimeout) {
		t.Errorf("consumed receive surfaced: %v", err)
	}
}

func TestActivateDirectSkipsHooks(t *testing.T) {
	f := newFixture(t)
	a := f.ctx(t, "a")
	b := f.ctx(t, "b")
	called := false
	a.SetInterceptors(func(bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
		called = true
		return bc, nil
	}, nil)
	if err := a.ActivateDirect("system/b", briefcase.New()); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("ActivateDirect ran the send hook")
	}
	if _, err := b.Await(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMsgIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := agent.NextMsgID()
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}
