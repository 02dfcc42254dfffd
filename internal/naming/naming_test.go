package naming_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/naming"
	"tax/internal/simnet"
)

func TestTableBasics(t *testing.T) {
	var tb naming.Table
	if _, err := tb.Lookup("x"); !errors.Is(err, naming.ErrUnbound) {
		t.Errorf("lookup on empty table: %v", err)
	}
	tb.Update("x", "tacoma://h1//ag:1", time.Second)
	b, err := tb.Lookup("x")
	if err != nil || b.Location != "tacoma://h1//ag:1" || b.Updated != time.Second {
		t.Errorf("lookup = %+v, %v", b, err)
	}
	tb.Update("x", "tacoma://h2//ag:2", 2*time.Second)
	b, _ = tb.Lookup("x")
	if b.Location != "tacoma://h2//ag:2" {
		t.Errorf("update did not replace: %+v", b)
	}
	if tb.Len() != 1 {
		t.Errorf("len = %d", tb.Len())
	}
	tb.Drop("x")
	if _, err := tb.Lookup("x"); !errors.Is(err, naming.ErrUnbound) {
		t.Error("drop did not remove")
	}
	tb.Drop("absent") // no panic
}

func newNode(t *testing.T) *core.Node {
	t.Helper()
	s, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	n, err := s.AddNode("home", core.NodeOptions{NoCVM: true, NameService: true})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func scratchCtx(t *testing.T, n *core.Node, name string) *agent.Context {
	t.Helper()
	reg, err := n.FW.Register("test", "system", name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.FW.Unregister(reg) })
	return agent.NewContext(n.FW, reg, briefcase.New(), nil, nil)
}

// TestZeroTableConcurrentFirstUse races the lazy shard construction: a
// fresh zero Table's first Update and Lookup arrive from several
// goroutines at once (the location-transparent wrapper does exactly
// this). Under -race this fails unless first use is synchronised, and
// every update must land in the one shard all callers share.
func TestZeroTableConcurrentFirstUse(t *testing.T) {
	for round := 0; round < 20; round++ {
		var tb naming.Table
		var wg sync.WaitGroup
		start := make(chan struct{})
		const n = 8
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				name := fmt.Sprintf("agent-%d", g)
				if g%2 == 0 {
					_, _ = tb.Lookup("agent-1")
				}
				tb.Update(name, "tacoma://h1//"+name, time.Second)
				if b, err := tb.Lookup(name); err != nil || b.Location != "tacoma://h1//"+name {
					t.Errorf("round %d: lookup %s = %+v, %v", round, name, b, err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if tb.Len() != n {
			t.Fatalf("round %d: %d bindings survived first use, want %d", round, tb.Len(), n)
		}
	}
}

func TestClientUpdateLookupDrop(t *testing.T) {
	n := newNode(t)
	ctx := scratchCtx(t, n, "roamer")
	c := naming.Client{Service: naming.ServiceName}

	if err := c.Update(ctx, "stable"); err != nil {
		t.Fatalf("update: %v", err)
	}
	loc, err := c.Lookup(ctx, "stable")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if loc != ctx.URI().String() {
		t.Errorf("lookup = %q, want %q", loc, ctx.URI())
	}
	// The local table agrees.
	b, err := n.Names.Lookup("stable")
	if err != nil || b.Location != loc {
		t.Errorf("table = %+v, %v", b, err)
	}
	if err := c.Drop(ctx, "stable"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, err := c.Lookup(ctx, "stable"); err == nil {
		t.Error("lookup after drop succeeded")
	}
}

func TestServiceErrors(t *testing.T) {
	n := newNode(t)
	ctx := scratchCtx(t, n, "caller")
	c := naming.Client{Service: naming.ServiceName}

	// Unknown name lookups error through the RPC.
	if _, err := c.Lookup(ctx, "never-bound"); err == nil {
		t.Error("unknown lookup succeeded")
	}

	// A request without a name errors.
	req := briefcase.New()
	req.SetString("_SVCOP", naming.OpLookup)
	if _, err := ctx.MeetDirect(naming.ServiceName, req, 5*time.Second); err == nil {
		t.Error("nameless request succeeded")
	}

	// An unknown operation errors.
	req2 := briefcase.New()
	req2.SetString("_SVCOP", "rename")
	req2.SetString(naming.FolderName, "x")
	if _, err := ctx.MeetDirect(naming.ServiceName, req2, 5*time.Second); err == nil {
		t.Error("unknown op succeeded")
	}
}

func TestUpdateDefaultsToSender(t *testing.T) {
	n := newNode(t)
	ctx := scratchCtx(t, n, "implicit")
	req := briefcase.New()
	req.SetString("_SVCOP", naming.OpUpdate)
	req.SetString(naming.FolderName, "me")
	// No explicit location: the service binds the authenticated sender.
	if _, err := ctx.MeetDirect(naming.ServiceName, req, 5*time.Second); err != nil {
		t.Fatalf("update: %v", err)
	}
	b, err := n.Names.Lookup("me")
	if err != nil {
		t.Fatal(err)
	}
	if b.Location != ctx.URI().String() {
		t.Errorf("bound %q, want sender %q", b.Location, ctx.URI())
	}
}
