// Package naming implements location-independent naming for TAX agents.
//
// The paper lists "location independent naming" among the traditional
// distributed-system services agent platforms keep absorbing (§4), and
// proposes instead that agents carry such support as wrappers. This
// package is the substrate the location-transparent wrapper uses: a home
// registry mapping stable agent names to their current location, updated
// by the wrapper on every move.
//
// Since the directory plane landed, the registry's storage is a
// directory.Shard: bindings are versioned and lease-based, so a crashed
// agent's entry expires to a typed ErrExpired instead of resolving to a
// dead location forever, and the same record format scales out to the
// sharded, replicated plane (package directory) without a migration.
// This package keeps the single-node ag_ns service for small
// deployments and the wrapper tests; fleet-scale deployments run the
// plane via core.EnableDirectory and point the wrapper at a
// directory.Client — both satisfy Resolver.
package naming

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/directory"
	"tax/internal/firewall"
	"tax/internal/services"
	"tax/internal/vm"
)

// ServiceName is the registry service agent's name.
const ServiceName = "ag_ns"

// Registry operations (services.FolderOp values); shared with the
// directory plane protocol.
const (
	// OpUpdate records the caller's (or a named agent's) location.
	OpUpdate = directory.OpUpdate
	// OpLookup resolves a stable name to its last known location.
	OpLookup = directory.OpLookup
	// OpDrop removes a binding.
	OpDrop = directory.OpDrop
)

// Registry folders (shared with the directory plane protocol).
const (
	// FolderName is the stable agent name being bound or resolved.
	FolderName = directory.FolderName
	// FolderLocation is the routable agent URI bound to the name.
	FolderLocation = directory.FolderLocation
)

// Typed registry errors. These are the directory plane's sentinels:
// they cross the wire as RemoteError codes (ns_unbound, ns_expired,
// ns_no_quorum), so errors.Is(err, naming.ErrUnbound) holds even when
// the lookup failed on another host.
var (
	// ErrUnbound is returned when a name has no binding.
	ErrUnbound = directory.ErrUnbound
	// ErrExpired is returned when a binding's lease ran out — the
	// location on record may be dead and is not served.
	ErrExpired = directory.ErrExpired
	// ErrNoQuorum is returned when a replicated write could not be
	// acknowledged by the full replica set.
	ErrNoQuorum = directory.ErrNoQuorum
)

// Binding is one name→location record (versioned and leased; see
// directory.Binding).
type Binding = directory.Binding

// Resolver is the name-registry contract the location-transparent
// wrapper programs against: the single-node Client and the plane's
// directory.Client both satisfy it.
type Resolver interface {
	Update(ctx *agent.Context, name string) error
	Lookup(ctx *agent.Context, name string) (string, error)
	Drop(ctx *agent.Context, name string) error
}

// Table is the single-node name table behind the ag_ns service agent;
// exposed for direct (same-process) inspection in tools and tests.
// The zero value is ready to use and grants non-expiring leases; set
// TTL before first use to make bindings lease out.
type Table struct {
	// TTL is the lease length granted on updates; zero means bindings
	// never expire (the pre-directory behaviour).
	TTL time.Duration

	once  sync.Once
	shard *directory.Shard
}

func (t *Table) s() *directory.Shard {
	// Lazily built so the zero Table keeps working; callers configure
	// TTL before first use (core does, at node construction). The Once
	// makes "first use" safe from several goroutines at a time.
	t.once.Do(func() { t.shard = directory.NewShard(nil, t.TTL) })
	return t.shard
}

// Update binds name to location under a fresh lease.
func (t *Table) Update(name, location string, now time.Duration) {
	_, _ = t.s().Coordinate(name, location, false, now)
}

// Lookup resolves a name, ignoring lease expiry (same-process callers
// that do not track virtual time; the service itself uses LookupAt).
func (t *Table) Lookup(name string) (Binding, error) {
	return t.s().LookupAt(name, 0)
}

// LookupAt resolves a name at virtual time now: unbound names return
// ErrUnbound, bindings past their lease return ErrExpired.
func (t *Table) LookupAt(name string, now time.Duration) (Binding, error) {
	return t.s().LookupAt(name, now)
}

// Drop removes a binding; dropping an absent name is a no-op (it
// records a tombstone).
func (t *Table) Drop(name string) {
	_, _ = t.s().Coordinate(name, "", true, 0)
}

// Len returns the number of live bindings.
func (t *Table) Len() int { return t.s().Len() }

// Sweep tombstones every binding whose lease ran out at now and
// returns how many were swept.
func (t *Table) Sweep(now time.Duration) int {
	swept, _ := t.s().SweepExpired(now, nil)
	return len(swept)
}

// NewService returns the ag_ns handler bound to a table.
func NewService(table *Table) vm.Handler {
	return func(ctx *agent.Context) error {
		for {
			req, err := ctx.Await(0)
			if err != nil {
				if errors.Is(err, firewall.ErrKilled) {
					return nil
				}
				return err
			}
			resp, err := serve(ctx, table, req)
			if err != nil {
				e := briefcase.New()
				e.SetString(firewall.FolderKind, firewall.KindError)
				firewall.SetError(e, err)
				_ = ctx.Reply(req, e)
				continue
			}
			if resp != nil {
				_ = ctx.Reply(req, resp)
			}
		}
	}
}

func serve(ctx *agent.Context, table *Table, req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	op, _ := req.GetString(services.FolderOp)
	name, _ := req.GetString(FolderName)
	if name == "" {
		return nil, errors.New("naming: request without name")
	}
	switch op {
	case OpUpdate:
		loc, ok := req.GetString(FolderLocation)
		if !ok {
			// Default to the authenticated sender: "I am here now".
			loc, ok = req.GetString(briefcase.FolderSysSender)
			if !ok {
				return nil, errors.New("naming: update without location")
			}
		}
		table.Update(name, loc, ctx.Now())
		resp := briefcase.New()
		resp.SetString("OK", name)
		return resp, nil
	case OpLookup:
		b, err := table.LookupAt(name, ctx.Now())
		if err != nil {
			return nil, err
		}
		resp := briefcase.New()
		resp.SetString(FolderLocation, b.Location)
		return resp, nil
	case OpDrop:
		table.Drop(name)
		resp := briefcase.New()
		resp.SetString("OK", name)
		return resp, nil
	default:
		return nil, fmt.Errorf("naming: unknown operation %q", op)
	}
}

// Client wraps the briefcase RPC protocol for agents using the
// single-node registry. It satisfies Resolver.
type Client struct {
	// Service is the registry's agent URI (possibly remote:
	// "tacoma://home//ag_ns").
	Service string
	// Timeout bounds each RPC; zero means 5 seconds.
	Timeout time.Duration
}

func (c Client) timeout() time.Duration {
	if c.Timeout == 0 {
		return 5 * time.Second
	}
	return c.Timeout
}

// Update binds name to the calling agent's current routable URI.
func (c Client) Update(ctx *agent.Context, name string) error {
	return c.UpdateCtx(context.Background(), ctx, name)
}

// UpdateCtx is Update with cancellation (PR 5 context-first convention).
func (c Client) UpdateCtx(cctx context.Context, ctx *agent.Context, name string) error {
	req := briefcase.New()
	req.SetString(services.FolderOp, OpUpdate)
	req.SetString(FolderName, name)
	req.SetString(FolderLocation, ctx.URI().String())
	_, err := ctx.MeetDirectCtx(cctx, c.Service, req, c.timeout())
	return err
}

// Lookup resolves name to its last known routable URI.
func (c Client) Lookup(ctx *agent.Context, name string) (string, error) {
	return c.LookupCtx(context.Background(), ctx, name)
}

// LookupCtx is Lookup with cancellation.
func (c Client) LookupCtx(cctx context.Context, ctx *agent.Context, name string) (string, error) {
	req := briefcase.New()
	req.SetString(services.FolderOp, OpLookup)
	req.SetString(FolderName, name)
	resp, err := ctx.MeetDirectCtx(cctx, c.Service, req, c.timeout())
	if err != nil {
		return "", err
	}
	loc, ok := resp.GetString(FolderLocation)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnbound, name)
	}
	return loc, nil
}

// Drop removes a binding.
func (c Client) Drop(ctx *agent.Context, name string) error {
	return c.DropCtx(context.Background(), ctx, name)
}

// DropCtx is Drop with cancellation.
func (c Client) DropCtx(cctx context.Context, ctx *agent.Context, name string) error {
	req := briefcase.New()
	req.SetString(services.FolderOp, OpDrop)
	req.SetString(FolderName, name)
	_, err := ctx.MeetDirectCtx(cctx, c.Service, req, c.timeout())
	return err
}
