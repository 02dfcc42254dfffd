package directory

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/services"
)

// Client routes naming RPCs over the directory plane: writes go to the
// name's shard owner (the only version authority), lookups go to the
// owner and fail over to the replicas when the owner is unreachable.
type Client struct {
	// Ring is the plane's ownership function (identical to the servers').
	Ring *Ring
	// Service maps a ring node to its shard service URI; nil = ServiceURI.
	Service func(node string) string
	// Timeout bounds each RPC attempt; zero means 3 seconds.
	Timeout time.Duration
}

func (c Client) timeout() time.Duration {
	if c.Timeout == 0 {
		return 3 * time.Second
	}
	return c.Timeout
}

func (c Client) service(node string) string {
	if c.Service != nil {
		return c.Service(node)
	}
	return ServiceURI(node)
}

// Update binds name to the calling agent's current routable URI (and
// renews its lease). Acknowledged only once every replica holds it.
func (c Client) Update(ctx *agent.Context, name string) error {
	return c.UpdateCtx(context.Background(), ctx, name)
}

// UpdateCtx is Update with cancellation.
func (c Client) UpdateCtx(cctx context.Context, ctx *agent.Context, name string) error {
	return c.BindCtx(cctx, ctx, name, ctx.URI().String())
}

// Bind binds name to an explicit location.
func (c Client) Bind(ctx *agent.Context, name, location string) error {
	return c.BindCtx(context.Background(), ctx, name, location)
}

// BindCtx is Bind with cancellation.
func (c Client) BindCtx(cctx context.Context, ctx *agent.Context, name, location string) error {
	req := briefcase.New()
	req.SetString(services.FolderOp, OpUpdate)
	req.SetString(FolderName, name)
	req.SetString(FolderLocation, location)
	_, err := ctx.MeetDirectCtx(cctx, c.service(c.Ring.Owner(name)), req, c.timeout())
	return err
}

// Lookup resolves name to its current routable URI.
func (c Client) Lookup(ctx *agent.Context, name string) (string, error) {
	return c.LookupCtx(context.Background(), ctx, name)
}

// LookupCtx is Lookup with cancellation.
func (c Client) LookupCtx(cctx context.Context, ctx *agent.Context, name string) (string, error) {
	b, err := c.ResolveCtx(cctx, ctx, name)
	return b.Location, err
}

// Resolve is Lookup returning the full binding (version and lease).
func (c Client) Resolve(ctx *agent.Context, name string) (Binding, error) {
	return c.ResolveCtx(context.Background(), ctx, name)
}

// ResolveCtx resolves against the owner and fails over to replicas on
// transport failures (owner crashed or partitioned). A typed answer
// from any node — bound, unbound, or expired — is definitive and ends
// the failover walk: acknowledged writes are on every replica, so a
// reachable replica serves the latest acknowledged version.
func (c Client) ResolveCtx(cctx context.Context, ctx *agent.Context, name string) (Binding, error) {
	var lastErr error
	for _, node := range c.Ring.Owners(name) {
		req := briefcase.New()
		req.SetString(services.FolderOp, OpLookup)
		req.SetString(FolderName, name)
		resp, err := ctx.MeetDirectCtx(cctx, c.service(node), req, c.timeout())
		if err == nil {
			loc, ok := resp.GetString(FolderLocation)
			if !ok {
				return Binding{}, fmt.Errorf("%w: %q", ErrUnbound, name)
			}
			ver, _ := resp.GetInt(FolderVersion)
			exp, _ := resp.GetInt(FolderExpire)
			return Binding{Name: name, Location: loc, Version: uint64(ver), Expires: time.Duration(exp)}, nil
		}
		var rerr *firewall.RemoteError
		if errors.As(err, &rerr) {
			return Binding{}, err // the plane answered; don't mask it with failover
		}
		lastErr = err
		if cctx.Err() != nil {
			break
		}
	}
	return Binding{}, lastErr
}

// Drop removes a binding (a replicated tombstone).
func (c Client) Drop(ctx *agent.Context, name string) error {
	return c.DropCtx(context.Background(), ctx, name)
}

// DropCtx is Drop with cancellation.
func (c Client) DropCtx(cctx context.Context, ctx *agent.Context, name string) error {
	req := briefcase.New()
	req.SetString(services.FolderOp, OpDrop)
	req.SetString(FolderName, name)
	_, err := ctx.MeetDirectCtx(cctx, c.service(c.Ring.Owner(name)), req, c.timeout())
	return err
}
