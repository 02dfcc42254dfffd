// Package agent implements the TAX library of §3.1: the primitives a
// mobile agent uses to operate on its state and communicate.
//
// The transportable state of an agent (code, arguments, results) is
// collected in a briefcase. On top of the two basic communication
// primitives (sending and receiving briefcases through the firewall) the
// library offers activate (asynchronous send), await (blocking receive),
// meet (RPC), go (move the agent to another VM, terminating the current
// instance on success) and spawn (like Unix fork: create a new agent with
// a fresh instance number, reported back to the caller).
package agent

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/telemetry"
	"tax/internal/uri"
)

// ErrMoved is returned by Go after a successful move. The paper's go()
// never returns on success — the local instance terminates. In Go idiom
// the handler returns ErrMoved up to its VM, which reaps the local
// instance without reporting an error:
//
//	if err := ctx.Go(next); errors.Is(err, agent.ErrMoved) {
//		return err // moved; local instance is done
//	}
//	// move failed: still here, handle it (figure 4 prints a warning)
var ErrMoved = errors.New("agent: moved to another virtual machine")

// ErrNoMover is returned by Go/Spawn when the hosting VM does not support
// relocation (service agents are stationary).
var ErrNoMover = errors.New("agent: the hosting VM does not support relocation")

// Folders used by the spawn protocol.
const (
	// FolderSpawn marks a transfer as a spawn rather than a move.
	FolderSpawn = "_SPAWN"
	// FolderInstance carries the new instance number in a spawn reply.
	FolderInstance = "_INSTANCE"
)

// Mover relocates agents; implemented by VMs that support mobility.
type Mover interface {
	// Move packages the agent's briefcase and sends it to the destination
	// VM. With spawn set, the local agent keeps running and the new
	// remote instance number is returned; otherwise the local instance
	// terminates (the caller returns ErrMoved).
	Move(c *Context, dest uri.URI, spawn bool) (uint64, error)
}

// LocalResolver lets a VM resolve a target to a co-located agent for the
// §3.3 bypass optimization. It returns nil when the target is not local
// to the VM.
type LocalResolver func(target uri.URI, senderPrincipal string) *firewall.Registration

// msgIDCounter feeds globally unique meet/spawn correlation ids.
var msgIDCounter atomic.Uint64

// Context is an executing agent's view of TAX: its briefcase, its
// registration with the local firewall, and the library primitives. A
// Context is bound to one agent goroutine and is not safe for concurrent
// use by multiple goroutines.
type Context struct {
	fw    *firewall.Firewall
	reg   *firewall.Registration
	bc    *briefcase.Briefcase
	mover Mover
	local LocalResolver

	// backlog holds briefcases received while waiting for a specific
	// meet/spawn reply.
	backlog []*briefcase.Briefcase

	// sendHook and recvHook are the wrapper interception points (§4):
	// the only actions observable to the system are sending and
	// receiving a briefcase, and wrappers intercept exactly those.
	sendHook func(*briefcase.Briefcase) (*briefcase.Briefcase, error)
	recvHook func(*briefcase.Briefcase) (*briefcase.Briefcase, error)

	// finalizer runs when the hosting VM reaps the agent (see Finish);
	// wrappers use it for end-of-life work such as pruning checkpoints.
	finalizer func(err error)
}

// NewContext binds an agent to its briefcase and registration. mover and
// local may be nil (stationary agent, no bypass).
func NewContext(fw *firewall.Firewall, reg *firewall.Registration, bc *briefcase.Briefcase, mover Mover, local LocalResolver) *Context {
	return &Context{fw: fw, reg: reg, bc: bc, mover: mover, local: local}
}

// Briefcase returns the agent's own briefcase. The agent always has
// access to it and can drop state no longer needed before moving.
func (c *Context) Briefcase() *briefcase.Briefcase { return c.bc }

// Registration returns the agent's firewall registration.
func (c *Context) Registration() *firewall.Registration { return c.reg }

// FW returns the local firewall; used by VMs and service agents that run
// code inline on an agent's behalf.
func (c *Context) FW() *firewall.Firewall { return c.fw }

// URI returns the agent's fully qualified (routable) URI.
func (c *Context) URI() uri.URI { return c.reg.GlobalURI() }

// Principal returns the principal the agent acts for.
func (c *Context) Principal() string { return c.reg.URI().Principal }

// Host returns the name of the host the agent currently executes on.
func (c *Context) Host() string { return c.fw.HostName() }

// Done is closed when the agent is killed by management action.
func (c *Context) Done() <-chan struct{} { return c.reg.Done() }

// Charge advances the host clock by a local computation cost; simulated
// workloads use it to account CPU time in virtual time.
func (c *Context) Charge(d time.Duration) { c.fw.Clock().Advance(d) }

// Now returns the current host (virtual) time.
func (c *Context) Now() time.Duration { return c.fw.Clock().Now() }

// SetInterceptors installs the wrapper hooks. The send hook sees every
// briefcase the agent sends before routing (returning nil swallows it);
// the receive hook sees every briefcase delivered to the agent
// (returning nil consumes it and the agent keeps waiting). VMs install
// these when activating a wrapped agent.
func (c *Context) SetInterceptors(
	send func(*briefcase.Briefcase) (*briefcase.Briefcase, error),
	recv func(*briefcase.Briefcase) (*briefcase.Briefcase, error),
) {
	c.sendHook, c.recvHook = send, recv
}

// SetFinalizer registers fn to run when the hosting VM reaps the agent.
// Wrapper stacks install it so wrappers can act on the agent's terminal
// outcome (nil on clean completion, ErrMoved after a move, else the
// fault) — the briefcase equivalent of a process exit handler.
func (c *Context) SetFinalizer(fn func(err error)) { c.finalizer = fn }

// Finish runs the registered finalizer, if any. VMs call it exactly once
// after the handler returns and before unregistering, so the finalizer
// can still send and receive on the agent's behalf.
func (c *Context) Finish(err error) {
	if c.finalizer != nil {
		c.finalizer(err)
	}
}

// Activate sends a briefcase to the target agent URI and returns
// immediately (the paper's activate() — equivalent to a send). The
// payload's _TARGET folder is set; ownership of payload transfers to the
// system. Wrapper send-interceptors run first and may rewrite or swallow
// the briefcase.
func (c *Context) Activate(target string, payload *briefcase.Briefcase) error {
	return c.ActivateCtx(context.Background(), target, payload)
}

// ActivateCtx is Activate with cancellation: a context already done
// fails before the wrapper hooks run, and the firewall send observes
// the context through its retry loop.
func (c *Context) ActivateCtx(ctx context.Context, target string, payload *briefcase.Briefcase) error {
	if c.sendHook != nil {
		// The hook sees the briefcase addressed; without one,
		// ActivateDirectCtx's own stamp is the only one needed.
		payload.SetString(briefcase.FolderSysTarget, target)
		out, err := c.sendHook(payload)
		if err != nil {
			return err
		}
		if out == nil {
			return nil // wrapper consumed the send
		}
		payload = out
		// The wrapper may have re-targeted the briefcase.
		if t, ok := payload.GetString(briefcase.FolderSysTarget); ok {
			target = t
		}
	}
	return c.ActivateDirectCtx(ctx, target, payload)
}

// ActivateDirect sends without running wrapper interceptors; wrappers use
// it for their own traffic (a monitoring report must not re-enter the
// monitoring wrapper).
func (c *Context) ActivateDirect(target string, payload *briefcase.Briefcase) error {
	return c.ActivateDirectCtx(context.Background(), target, payload)
}

// ActivateDirectCtx is ActivateDirect with cancellation.
func (c *Context) ActivateDirectCtx(ctx context.Context, target string, payload *briefcase.Briefcase) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tu, err := uri.Parse(target)
	if err != nil {
		return fmt.Errorf("agent: activate: %w", err)
	}
	payload.SetString(briefcase.FolderSysTarget, target)
	c.propagateTrace(payload)
	// §3.3: virtual machines may resolve internal communication without
	// involving the firewall. Fully qualified URIs naming this host are
	// just as local as bare ones.
	if c.local != nil && (tu.IsLocal() || tu.Host == c.fw.HostName()) {
		if r := c.local(tu, c.Principal()); r != nil {
			payload.SetString(briefcase.FolderSysSender, c.URI().String())
			return r.Inject(payload)
		}
	}
	return c.fw.SendCtx(ctx, c.URI(), payload)
}

// Await blocks until a briefcase arrives (the paper's await()). A zero
// timeout waits forever. Briefcases buffered while waiting for an RPC
// reply are returned first, in arrival order. Wrapper receive-
// interceptors run on every arrival and may consume briefcases, in which
// case Await keeps waiting.
func (c *Context) Await(timeout time.Duration) (*briefcase.Briefcase, error) {
	return c.AwaitCtx(context.Background(), timeout)
}

// AwaitCtx is Await with cancellation: the wait additionally ends when
// ctx is done, returning its error.
func (c *Context) AwaitCtx(ctx context.Context, timeout time.Duration) (*briefcase.Briefcase, error) {
	if len(c.backlog) > 0 {
		bc := c.backlog[0]
		c.backlog = c.backlog[1:]
		return bc, nil
	}
	return c.receive(ctx, timeout)
}

// receive takes one briefcase from the mailbox, running the wrapper
// receive hook; consumed briefcases do not count against the caller —
// it keeps waiting within the same timeout budget.
func (c *Context) receive(ctx context.Context, timeout time.Duration) (*briefcase.Briefcase, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		remain := time.Duration(0)
		if timeout > 0 {
			remain = time.Until(deadline)
			if remain <= 0 {
				return nil, fmt.Errorf("agent: %w", firewall.ErrRecvTimeout)
			}
		}
		bc, err := c.reg.RecvCtx(ctx, remain)
		if err != nil {
			return nil, err
		}
		if c.recvHook == nil {
			return bc, nil
		}
		out, err := c.recvHook(bc)
		if err != nil {
			return nil, err
		}
		if out != nil {
			return out, nil
		}
		// The wrapper consumed the briefcase; keep waiting.
	}
}

// Meet performs an RPC (the paper's meet()): it sends payload to the
// target and blocks until the matching reply arrives. Unrelated
// briefcases arriving meanwhile are buffered for later Await calls.
func (c *Context) Meet(target string, payload *briefcase.Briefcase, timeout time.Duration) (*briefcase.Briefcase, error) {
	return c.MeetCtx(context.Background(), target, payload, timeout)
}

// MeetCtx is Meet with cancellation: the context covers the send and
// the reply wait, so an abandoned RPC stops blocking as soon as the
// caller gives up.
func (c *Context) MeetCtx(ctx context.Context, target string, payload *briefcase.Briefcase, timeout time.Duration) (*briefcase.Briefcase, error) {
	id := nextMsgID()
	payload.SetString(firewall.FolderMsgID, id)
	sp := c.span("agent.meet")
	sp.SetAttr("target", target)
	if sp != nil {
		payload.SetString(briefcase.FolderSysSpan, sp.ID())
	}
	if err := c.ActivateCtx(ctx, target, payload); err != nil {
		sp.SetErr(err)
		sp.End()
		return nil, err
	}
	reply, err := c.awaitReply(ctx, id, timeout)
	sp.SetErr(err)
	sp.End()
	return reply, err
}

// MeetDirect is Meet without wrapper interception, for wrappers and
// system components performing RPCs on an agent's behalf (a location
// lookup inside a send-interceptor must not re-enter that interceptor).
func (c *Context) MeetDirect(target string, payload *briefcase.Briefcase, timeout time.Duration) (*briefcase.Briefcase, error) {
	return c.MeetDirectCtx(context.Background(), target, payload, timeout)
}

// MeetDirectCtx is MeetDirect with cancellation: the context covers the
// send and the reply wait (PR 5 context-first convention).
func (c *Context) MeetDirectCtx(ctx context.Context, target string, payload *briefcase.Briefcase, timeout time.Duration) (*briefcase.Briefcase, error) {
	id := nextMsgID()
	payload.SetString(firewall.FolderMsgID, id)
	if err := c.ActivateDirectCtx(ctx, target, payload); err != nil {
		return nil, err
	}
	return c.awaitReply(ctx, id, timeout)
}

// Reply answers a briefcase received via Await/Meet service loops: the
// response is routed to the request's authenticated sender and correlated
// with its message id.
func (c *Context) Reply(request, response *briefcase.Briefcase) error {
	sender, ok := request.GetString(briefcase.FolderSysSender)
	if !ok {
		return errors.New("agent: reply: request has no sender")
	}
	if id, ok := request.GetString(firewall.FolderMsgID); ok {
		response.SetString(firewall.FolderReplyTo, id)
	}
	// The retry policy rides the conversation: a request that asked to be
	// retried gets a reply that retries the same way.
	if pol, ok := request.GetString(briefcase.FolderSysRetry); ok {
		if _, has := response.GetString(briefcase.FolderSysRetry); !has {
			response.SetString(briefcase.FolderSysRetry, pol)
		}
	}
	return c.Activate(sender, response)
}

// awaitReply receives until a briefcase with _REPLYTO == id arrives.
func (c *Context) awaitReply(ctx context.Context, id string, timeout time.Duration) (*briefcase.Briefcase, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		remain := time.Duration(0)
		if timeout > 0 {
			remain = time.Until(deadline)
			if remain <= 0 {
				return nil, fmt.Errorf("agent: meet: %w", firewall.ErrRecvTimeout)
			}
		}
		bc, err := c.receive(ctx, remain)
		if err != nil {
			return nil, err
		}
		if got, ok := bc.GetString(firewall.FolderReplyTo); ok && got == id {
			if firewall.Kind(bc) == firewall.KindError {
				// The reply carries the failure as _ERROR/_ERRCODE folders;
				// surface it as a wrapped RemoteError so callers can use
				// errors.Is against the originating sentinel.
				if rerr, ok := firewall.RemoteErrorFrom(bc); ok {
					return bc, fmt.Errorf("agent: meet: remote error: %w", rerr)
				}
				return bc, fmt.Errorf("agent: meet: remote error: %w", &firewall.RemoteError{})
			}
			return bc, nil
		}
		c.backlog = append(c.backlog, bc)
	}
}

// Go moves the agent (code and briefcase) to the destination VM given as
// an agent URI (e.g. "tacoma://h2//vm_go") and terminates the current
// instance if the move is successful, returning ErrMoved for the handler
// to propagate. On failure the agent keeps executing locally and the
// error describes why the destination was unreachable.
func (c *Context) Go(dest string) error {
	if c.mover == nil {
		return ErrNoMover
	}
	du, err := uri.Parse(dest)
	if err != nil {
		return fmt.Errorf("agent: go: %w", err)
	}
	// The hop span parents everything the move triggers downstream: the
	// firewall send, the network transfer, the inbound mediation at the
	// destination and the next activation all read _PSPAN from the
	// travelling briefcase.
	sp := c.span("agent.go")
	sp.SetAttr("dest", dest)
	if sp != nil {
		c.bc.SetString(briefcase.FolderSysSpan, sp.ID())
	}
	if _, err := c.mover.Move(c, du, false); err != nil {
		sp.SetErr(err)
		sp.End()
		return fmt.Errorf("agent: go %s: %w", dest, err)
	}
	sp.End()
	return ErrMoved
}

// Spawn creates a new agent with the same code and a copy of the
// briefcase on the destination VM, like the Unix fork() system call. The
// new agent's instance number is reported back to the caller; the local
// instance keeps running.
func (c *Context) Spawn(dest string) (uint64, error) {
	if c.mover == nil {
		return 0, ErrNoMover
	}
	du, err := uri.Parse(dest)
	if err != nil {
		return 0, fmt.Errorf("agent: spawn: %w", err)
	}
	sp := c.span("agent.spawn")
	sp.SetAttr("dest", dest)
	var prevParent string
	var hadParent bool
	if sp != nil {
		// The clone taken inside Move carries the spawn span as parent; the
		// local instance keeps running, so its own parent is restored below.
		prevParent, hadParent = c.bc.GetString(briefcase.FolderSysSpan)
		c.bc.SetString(briefcase.FolderSysSpan, sp.ID())
	}
	inst, err := c.mover.Move(c, du, true)
	if sp != nil {
		if hadParent {
			c.bc.SetString(briefcase.FolderSysSpan, prevParent)
		} else {
			c.bc.Drop(briefcase.FolderSysSpan)
		}
	}
	if err != nil {
		sp.SetErr(err)
		sp.End()
		return 0, fmt.Errorf("agent: spawn %s: %w", dest, err)
	}
	sp.End()
	return inst, nil
}

// AwaitReply exposes reply-correlated receive for movers implementing the
// spawn protocol.
func (c *Context) AwaitReply(id string, timeout time.Duration) (*briefcase.Briefcase, error) {
	return c.awaitReply(context.Background(), id, timeout)
}

// StampTrace marks a briefcase as the root of a fresh telemetry trace and
// returns the new trace id. Call it on an agent's briefcase before
// launching to have its whole itinerary — hops, firewall mediations, VM
// activations — collected as one span tree.
func StampTrace(bc *briefcase.Briefcase, host string) string {
	id := telemetry.NewTraceID(host)
	bc.SetString(briefcase.FolderSysTrace, id)
	return id
}

// span opens a span in the agent's own trace (nil when spans are off or
// the agent's briefcase carries no trace context).
func (c *Context) span(name string) *telemetry.Span {
	spans := c.fw.Telemetry().Spans()
	if spans == nil {
		return nil
	}
	trace, ok := c.bc.GetString(briefcase.FolderSysTrace)
	if !ok {
		return nil
	}
	parent, _ := c.bc.GetString(briefcase.FolderSysSpan)
	return spans.Start(c.fw.Clock(), c.fw.HostName(), trace, parent, name)
}

// propagateTrace copies the agent's trace context onto an outgoing
// briefcase (when it has none of its own) so the firewall spans recorded
// for the message join the agent's trace.
func (c *Context) propagateTrace(payload *briefcase.Briefcase) {
	if payload == c.bc {
		return
	}
	trace, ok := c.bc.GetString(briefcase.FolderSysTrace)
	if !ok {
		return
	}
	if _, has := payload.GetString(briefcase.FolderSysTrace); has {
		return
	}
	payload.SetString(briefcase.FolderSysTrace, trace)
	if parent, ok := c.bc.GetString(briefcase.FolderSysSpan); ok {
		payload.SetString(briefcase.FolderSysSpan, parent)
	}
}

// nextMsgID returns a process-unique correlation id. Fixed-width for the
// same reason as trace ids (see telemetry.NewTraceID): the id travels in
// the briefcase, so its length feeds the simulated transfer-time model and
// must not vary with how many ids the process minted before.
func nextMsgID() string {
	return fmt.Sprintf("m%016x", msgIDCounter.Add(1))
}

// NextMsgID exposes id generation for movers and wrappers that speak the
// meet protocol on an agent's behalf.
func NextMsgID() string { return nextMsgID() }
