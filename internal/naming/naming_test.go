// Package naming_test checks location-independent naming as a
// single-node deployment runs it: a one-member directory plane, the name
// service the location-transparent wrapper binds stable names in. The
// multi-member cases (replication, failover, misrouted writes) are in
// internal/directory's plane tests.
package naming_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/directory"
	"tax/internal/services"
	"tax/internal/simnet"
)

// newNode boots a system whose only directory member is "home", plus
// any extra plain hosts, and returns home with the plane's client.
func newNode(t *testing.T, ttl time.Duration, extra ...string) (*core.System, *core.Node, directory.Client) {
	t.Helper()
	s, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if _, err := s.EnableDirectory(core.DirectoryConfig{Nodes: []string{"home"}, TTL: ttl}); err != nil {
		t.Fatal(err)
	}
	var home *core.Node
	for _, h := range append([]string{"home"}, extra...) {
		n, err := s.AddNode(h, core.NodeOptions{NoCVM: true})
		if err != nil {
			t.Fatal(err)
		}
		if home == nil {
			home = n
		}
	}
	c, err := s.DirectoryClient()
	if err != nil {
		t.Fatal(err)
	}
	return s, home, c
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

func TestClientUpdateLookupDrop(t *testing.T) {
	_, n, c := newNode(t, 0)
	ctx := scratchCtx(t, n, "roamer")

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
	// The member's own shard agrees.
	if b, ok := n.Dir.Shard().Get("stable"); !ok || b.Location != loc {
		t.Errorf("shard = %+v, %v", b, ok)
	}
	if err := c.Drop(ctx, "stable"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, err := c.Lookup(ctx, "stable"); err == nil {
		t.Error("lookup after drop succeeded")
	}
}

func TestServiceErrors(t *testing.T) {
	_, n, c := newNode(t, 0)
	ctx := scratchCtx(t, n, "caller")
	svc := directory.ServiceURI("home")

	// Unknown name lookups error through the RPC.
	if _, err := c.Lookup(ctx, "never-bound"); !errors.Is(err, directory.ErrUnbound) {
		t.Errorf("unknown lookup err = %v, want ns_unbound", err)
	}

	// A request without a name errors.
	req := briefcase.New()
	req.SetString(services.FolderOp, directory.OpLookup)
	if _, err := ctx.MeetDirect(svc, req, 5*time.Second); !errors.Is(err, services.ErrBadRequest) {
		t.Errorf("nameless request err = %v, want svc_bad_request", err)
	}

	// An unknown operation errors.
	req2 := briefcase.New()
	req2.SetString(services.FolderOp, "rename")
	req2.SetString(directory.FolderName, "x")
	if _, err := ctx.MeetDirect(svc, req2, 5*time.Second); !errors.Is(err, services.ErrUnknownOp) {
		t.Errorf("unknown op err = %v, want svc_unknown_op", err)
	}
}

func TestUpdateDefaultsToSender(t *testing.T) {
	_, n, _ := newNode(t, 0)
	ctx := scratchCtx(t, n, "implicit")
	req := briefcase.New()
	req.SetString(services.FolderOp, directory.OpUpdate)
	req.SetString(directory.FolderName, "me")
	// No explicit location: the service binds the authenticated sender.
	if _, err := ctx.MeetDirect(directory.ServiceURI("home"), req, 5*time.Second); err != nil {
		t.Fatalf("update: %v", err)
	}
	b, ok := n.Dir.Shard().Get("me")
	if !ok {
		t.Fatal("sender binding missing from the shard")
	}
	if b.Location != ctx.URI().String() {
		t.Errorf("bound %q, want sender %q", b.Location, ctx.URI())
	}
}

// TestStaleBindingExpiresAfterHostCrash pins the stale-binding bug: a
// registry without leases kept resolving an agent on a crashed host to
// its dead location forever. With a lease TTL the binding stops being
// renewed when the host dies, and lookups surface the typed ns_expired
// error instead of the dead URI.
func TestStaleBindingExpiresAfterHostCrash(t *testing.T) {
	const ttl = 50 * time.Millisecond
	s, home, c := newNode(t, ttl, "h2")
	h2, err := s.Node("h2")
	if err != nil {
		t.Fatal(err)
	}

	// An agent on h2 registers its location, as the location-transparent
	// wrapper does on every hop.
	traveller := scratchCtx(t, h2, "traveller")
	if err := c.Update(traveller, "traveller"); err != nil {
		t.Fatal(err)
	}
	dead := traveller.URI().String()
	ctx := scratchCtx(t, home, "observer")
	loc, err := c.Lookup(ctx, "traveller")
	if err != nil || loc != dead {
		t.Fatalf("live lookup = %q, %v; want %q", loc, err, dead)
	}

	// h2 dies; nothing renews the binding. Once the lease runs out the
	// registry must stop serving the dead location.
	s.Net.Crash("h2")
	home.Host.Charge(2 * ttl)

	_, err = c.Lookup(ctx, "traveller")
	if err == nil {
		t.Fatal("stale binding still resolves after its host crashed and the lease expired")
	}
	if !errors.Is(err, directory.ErrExpired) {
		t.Fatalf("stale lookup err = %v, want typed ns_expired", err)
	}

	// The crashed agent's replacement can re-bind the name.
	if err := c.Bind(ctx, "traveller", "tacoma://h3/alice/webbot:9"); err != nil {
		t.Fatal(err)
	}
	if loc, err := c.Lookup(ctx, "traveller"); err != nil || loc != "tacoma://h3/alice/webbot:9" {
		t.Fatalf("re-bound lookup = %q, %v", loc, err)
	}
}

// TestClientCtxVariants exercises the context-first API: a cancelled
// context aborts the RPC, a live one behaves like the plain calls.
func TestClientCtxVariants(t *testing.T) {
	_, n, c := newNode(t, 0)
	ctx := scratchCtx(t, n, "ctxer")

	if err := c.UpdateCtx(context.Background(), ctx, "stable"); err != nil {
		t.Fatalf("UpdateCtx: %v", err)
	}
	loc, err := c.LookupCtx(context.Background(), ctx, "stable")
	if err != nil || loc == "" {
		t.Fatalf("LookupCtx = %q, %v", loc, err)
	}
	if err := c.DropCtx(context.Background(), ctx, "stable"); err != nil {
		t.Fatalf("DropCtx: %v", err)
	}
	if _, err := c.LookupCtx(context.Background(), ctx, "stable"); !errors.Is(err, directory.ErrUnbound) {
		t.Fatalf("dropped LookupCtx err = %v, want ErrUnbound", err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.LookupCtx(cancelled, ctx, "stable"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled LookupCtx err = %v, want context.Canceled", err)
	}
}
