package directory_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/directory"
	"tax/internal/services"
	"tax/internal/simnet"
)

var planeNodes = []string{"d1", "d2", "d3"}

// newPlane boots a 3-member directory plane plus one plain client host.
func newPlane(t *testing.T, cfg core.DirectoryConfig) (*core.System, *directory.Ring, *agent.Context) {
	t.Helper()
	s, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	cfg.Nodes = planeNodes
	ring, err := s.EnableDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range append(append([]string(nil), planeNodes...), "c") {
		if _, err := s.AddNode(h, core.NodeOptions{NoCVM: true}); err != nil {
			t.Fatal(err)
		}
	}
	cn, err := s.Node("c")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := cn.FW.Register("test", "system", "caller")
	if err != nil {
		t.Fatal(err)
	}
	return s, ring, agent.NewContext(cn.FW, reg, briefcase.New(), nil, nil)
}

func TestPlaneBindLookupDrop(t *testing.T) {
	s, ring, ctx := newPlane(t, core.DirectoryConfig{AckTimeout: 2 * time.Second})
	c, err := s.DirectoryClient()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alice", "bob", "carol", "dave", "erin"}
	for i, n := range names {
		if err := c.Bind(ctx, n, "tacoma://h"+string(rune('1'+i))+"//vm_go"); err != nil {
			t.Fatalf("bind %s: %v", n, err)
		}
	}
	for i, n := range names {
		b, err := c.Resolve(ctx, n)
		if err != nil {
			t.Fatalf("resolve %s: %v", n, err)
		}
		if want := "tacoma://h" + string(rune('1'+i)) + "//vm_go"; b.Location != want {
			t.Fatalf("resolve %s = %q, want %q", n, b.Location, want)
		}
		if b.Version != 1 || b.Expires == 0 {
			t.Fatalf("resolve %s binding = %+v, want v1 with a lease", n, b)
		}
	}
	// An update without a location binds the authenticated sender.
	req := briefcase.New()
	req.SetString(services.FolderOp, directory.OpUpdate)
	req.SetString(directory.FolderName, "me")
	if _, err := ctx.MeetDirect(directory.ServiceURI(ring.Owner("me")), req, 2*time.Second); err != nil {
		t.Fatalf("sender bind: %v", err)
	}
	if b, err := c.Resolve(ctx, "me"); err != nil || b.Location != ctx.URI().String() {
		t.Fatalf("sender bind resolves to %+v, %v; want %s", b, err, ctx.URI())
	}
	// Acknowledged writes are on every replica (not just the owner).
	for _, n := range names {
		for _, member := range ring.Owners(n) {
			node, err := s.Node(member)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := node.Dir.Shard().Get(n); !ok {
				t.Fatalf("acked binding %s missing on replica %s", n, member)
			}
		}
	}
	// A re-bind renews and bumps the version.
	if err := c.Bind(ctx, "alice", "tacoma://h9//vm_go"); err != nil {
		t.Fatal(err)
	}
	if b, err := c.Resolve(ctx, "alice"); err != nil || b.Version != 2 || b.Location != "tacoma://h9//vm_go" {
		t.Fatalf("re-bind = %+v, %v", b, err)
	}
	// Drop is typed across the wire: errors.Is sees ErrUnbound even
	// though the verdict came from a remote directory node.
	if err := c.Drop(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(ctx, "alice"); !errors.Is(err, directory.ErrUnbound) {
		t.Fatalf("dropped resolve err = %v, want ns_unbound", err)
	}
	if _, err := c.Resolve(ctx, "never-bound"); !errors.Is(err, directory.ErrUnbound) {
		t.Fatalf("unbound resolve err = %v, want ns_unbound", err)
	}
	// A cancelled context aborts the RPC instead of failing over.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ResolveCtx(cancelled, ctx, "bob"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled resolve err = %v, want context.Canceled", err)
	}
}

func TestPlaneOwnerCrashFailover(t *testing.T) {
	s, ring, ctx := newPlane(t, core.DirectoryConfig{AckTimeout: time.Second})
	c, _ := s.DirectoryClient()
	c.Timeout = 500 * time.Millisecond

	const name = "wanderer"
	if err := c.Bind(ctx, name, "tacoma://h1//vm_go"); err != nil {
		t.Fatal(err)
	}
	owner := ring.Owner(name)
	s.Net.Crash(owner)

	// Lookup fails over to the replica and still serves the acked write.
	b, err := c.Resolve(ctx, name)
	if err != nil {
		t.Fatalf("failover resolve: %v", err)
	}
	if b.Location != "tacoma://h1//vm_go" || b.Version != 1 {
		t.Fatalf("failover binding = %+v", b)
	}
	// A write needs the owner: while it is down the bind must fail —
	// never a silent ack.
	if err := c.Bind(ctx, name, "tacoma://h2//vm_go"); err == nil {
		t.Fatal("write acked while the shard owner was crashed")
	}

	// The owner rejoins: recovery replays its cabinet and the restart
	// pull reconciles anything it missed; the binding is intact.
	s.Net.Restart(owner)
	ownerNode, _ := s.Node(owner)
	if err := ownerNode.Dir.Resync(); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if b, err := c.Resolve(ctx, name); err != nil || b.Location != "tacoma://h1//vm_go" {
		t.Fatalf("post-restart resolve = %+v, %v", b, err)
	}
}

func TestPlaneLeaseExpiresTyped(t *testing.T) {
	s, ring, ctx := newPlane(t, core.DirectoryConfig{TTL: 50 * time.Millisecond})
	c, _ := s.DirectoryClient()
	const name = "mayfly"
	if err := c.Bind(ctx, name, "tacoma://h1//vm_go"); err != nil {
		t.Fatal(err)
	}
	// The agent stops renewing (its host died); virtual time passes the
	// lease on every member.
	for _, member := range ring.Nodes() {
		n, _ := s.Node(member)
		n.Host.Charge(time.Second)
	}
	_, err := c.Resolve(ctx, name)
	if !errors.Is(err, directory.ErrExpired) {
		t.Fatalf("expired resolve err = %v, want ns_expired", err)
	}
	// The silent agent's replacement re-binds the name.
	if err := c.Bind(ctx, name, "tacoma://h3//vm_go"); err != nil {
		t.Fatalf("re-bind after expiry: %v", err)
	}
	if b, err := c.Resolve(ctx, name); err != nil || b.Location != "tacoma://h3//vm_go" {
		t.Fatalf("re-bound resolve = %+v, %v", b, err)
	}
}

func TestPlaneMisroutedWriteTyped(t *testing.T) {
	s, ring, ctx := newPlane(t, core.DirectoryConfig{})
	_ = s
	const name = "misroute"
	owner := ring.Owner(name)
	var wrong string
	for _, n := range ring.Nodes() {
		if n != owner {
			wrong = n
			break
		}
	}
	req := briefcase.New()
	req.SetString(services.FolderOp, directory.OpUpdate)
	req.SetString(directory.FolderName, name)
	req.SetString(directory.FolderLocation, "tacoma://h1//vm_go")
	_, err := ctx.MeetDirect(directory.ServiceURI(wrong), req, 2*time.Second)
	if !errors.Is(err, directory.ErrNotOwner) {
		t.Fatalf("misrouted write err = %v, want ns_not_owner", err)
	}
	// A request without a name, and an unknown operation, are answered
	// with typed errors too.
	nameless := briefcase.New()
	nameless.SetString(services.FolderOp, directory.OpLookup)
	if _, err := ctx.MeetDirect(directory.ServiceURI(owner), nameless, 2*time.Second); !errors.Is(err, services.ErrBadRequest) {
		t.Fatalf("nameless request err = %v, want svc_bad_request", err)
	}
	unknown := briefcase.New()
	unknown.SetString(services.FolderOp, "rename")
	unknown.SetString(directory.FolderName, name)
	if _, err := ctx.MeetDirect(directory.ServiceURI(owner), unknown, 2*time.Second); !errors.Is(err, services.ErrUnknownOp) {
		t.Fatalf("unknown op err = %v, want svc_unknown_op", err)
	}
}

func TestPlaneManagementRows(t *testing.T) {
	s, ring, ctx := newPlane(t, core.DirectoryConfig{})
	c, _ := s.DirectoryClient()
	for _, n := range []string{"alice", "bob", "carol"} {
		if err := c.Bind(ctx, n, "tacoma://h1/alice/webbot:2a"); err != nil {
			t.Fatal(err)
		}
	}
	node, _ := s.Node(ring.Nodes()[0])
	for verb, want := range map[string]string{
		"ring":   "ring|nodes=3",
		"counts": "counts|node=" + node.Name,
		"leases": "lease|",
		"health": "self|" + node.Name,
	} {
		rows, err := node.Dir.Rows(verb)
		if err != nil {
			t.Fatalf("rows(%s): %v", verb, err)
		}
		if len(rows) == 0 || !strings.Contains(strings.Join(rows, "\n"), want) {
			t.Fatalf("rows(%s) = %v, want %q", verb, rows, want)
		}
	}
	// Instance ids are masked so two seeded runs render byte-identically.
	rows, _ := node.Dir.Rows("leases")
	joined := strings.Join(rows, "\n")
	if strings.Contains(joined, ":2a") || !strings.Contains(joined, ":«i»") {
		t.Fatalf("instance ids not masked: %v", rows)
	}
	if _, err := node.Dir.Rows("bogus"); err == nil {
		t.Fatal("unknown verb accepted")
	}
}
