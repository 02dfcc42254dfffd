// Package rearguard completes the §4 fault-tolerance story: a home-site
// supervisor ("rear guard") that watches an itinerant agent's progress
// reports and, when a hop goes silent past a deadline, restores the
// agent from its last checkpoint snapshot and relaunches the remaining
// itinerary from home.
//
// Two halves cooperate:
//
//   - Beacon is a wrapper travelling with the agent. On every arrival it
//     reports the hop to the guard URI carried in the briefcase's _RGHOME
//     folder; on clean completion it reports done; on a fault it reports
//     the failure. Before each move it records the destination in the
//     travelling _RGLAST folder, so the checkpoint snapshot taken for
//     that move names the hop the agent was heading to when it vanished.
//   - Guard registers with the home firewall, consumes the reports, and
//     declares a hop dead when no report arrives within HopDeadline. It
//     then reads the snapshot back from the home store, optionally
//     reinserts the dead stop at the head of the HOSTS itinerary (a
//     still-dead stop is skipped by agent.RunItinerary, so this retries
//     rather than loops), and relaunches — at most MaxRecoveries times.
//
// Recovery is at-least-once: if the "dead" hop was merely partitioned,
// the original instance may still be running. Visit effects must be
// idempotent for exactly-once outcomes; the chaos tests assert exactly
// that discipline.
package rearguard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/telemetry"
	"tax/internal/wrapper"
)

// WrapperName is the Beacon's name in _WRAP folders.
const WrapperName = "rearguard"

// Folders of the report protocol. _RGHOME (briefcase.FolderSysRearGuard)
// travels in the agent's briefcase; the rest ride report briefcases,
// except _RGLAST which travels so the snapshot captures it.
const (
	// FolderStatus carries the report type: hop, done or fail.
	FolderStatus = "_RGSTAT"
	// FolderHost names the host the report originated on.
	FolderHost = "_RGHOST"
	// FolderCause carries the fault description in a fail report.
	FolderCause = "_RGERR"
	// FolderLastStop records, in the travelling briefcase, the
	// destination of the agent's most recent move.
	FolderLastStop = "_RGLAST"
)

// Report statuses.
const (
	StatusHop  = "hop"
	StatusDone = "done"
	StatusFail = "fail"
)

// Typed terminal outcomes.
var (
	// ErrUnrecovered: the recovery budget (MaxRecoveries) is exhausted
	// and the itinerary still has not completed.
	ErrUnrecovered = errors.New("rearguard: recovery budget exhausted")
	// ErrRecoveryFailed: a recovery attempt itself failed (snapshot
	// unreadable, undecodable, or relaunch rejected).
	ErrRecoveryFailed = errors.New("rearguard: recovery failed")
	// ErrWaitTimeout: Wait's own deadline elapsed before the guard
	// reached a terminal outcome.
	ErrWaitTimeout = errors.New("rearguard: wait timeout")
	// ErrClosed: the guard was closed before a terminal outcome.
	ErrClosed = errors.New("rearguard: guard closed")
)

// Beacon is the travelling half: a wrapper reporting the agent's
// progress to the guard named in the briefcase's _RGHOME folder. All
// reports are best-effort sends — a report lost to the fault being
// survived is exactly the silence the guard's deadline detects.
type Beacon struct{}

var (
	_ wrapper.Wrapper   = (*Beacon)(nil)
	_ wrapper.Finalizer = (*Beacon)(nil)
)

// Name implements wrapper.Wrapper.
func (b *Beacon) Name() string { return WrapperName }

// Init implements wrapper.Wrapper: every arrival reports a hop.
func (b *Beacon) Init(ctx *agent.Context) error {
	b.report(ctx, StatusHop, "")
	return nil
}

// OnSend implements wrapper.Wrapper: a departing move records its
// destination in the travelling briefcase so the checkpoint snapshot
// (taken by an outer Checkpoint wrapper) names the hop in flight.
func (b *Beacon) OnSend(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	if firewall.Kind(bc) == firewall.KindTransfer {
		if target, ok := bc.GetString(briefcase.FolderSysTarget); ok {
			bc.SetString(FolderLastStop, target)
		}
	}
	return bc, nil
}

// OnReceive implements wrapper.Wrapper (pass-through).
func (b *Beacon) OnReceive(_ *agent.Context, bc *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return bc, nil
}

// OnDone implements wrapper.Finalizer: clean completion reports done; a
// fault reports fail so the guard can recover without waiting out the
// deadline. A move reports nothing — the next host's Init does.
func (b *Beacon) OnDone(ctx *agent.Context, err error) {
	switch {
	case err == nil:
		b.report(ctx, StatusDone, "")
	case errors.Is(err, agent.ErrMoved):
	default:
		b.report(ctx, StatusFail, err.Error())
	}
}

// report sends one status briefcase to the guard, bypassing wrapper
// interception (a monitoring report must not re-enter the monitor).
func (b *Beacon) report(ctx *agent.Context, status, cause string) {
	guard, ok := ctx.Briefcase().GetString(briefcase.FolderSysRearGuard)
	if !ok {
		return // unguarded agent: the wrapper is inert
	}
	rep := briefcase.New()
	rep.SetString(FolderStatus, status)
	rep.SetString(FolderHost, ctx.Host())
	if cause != "" {
		rep.SetString(FolderCause, cause)
	}
	// Reports inherit the agent's retry policy: they are the liveness
	// signal and should ride out the same lossy path the agent does.
	if pol, ok := ctx.Briefcase().GetString(briefcase.FolderSysRetry); ok {
		rep.SetString(briefcase.FolderSysRetry, pol)
	}
	_ = ctx.ActivateDirect(guard, rep)
}

// Config wires a Guard to its home node. FW, Launch, Program and
// Checkpoint are required.
type Config struct {
	// FW is the home firewall the guard registers with.
	FW *firewall.Firewall
	// Launch relaunches the agent on the home VM (node.VM.Launch).
	Launch func(principal, name, program string, bc *briefcase.Briefcase) (*firewall.Registration, error)
	// AgentName names the relaunched instance, which acts for the home
	// firewall's system principal; Program names its pre-deployed code.
	AgentName string
	Program   string
	// Checkpoint is the snapshot's path in the home store — the same
	// Path the agent's wrapper.Checkpoint writes.
	Checkpoint string
	// Store names the home service holding the snapshot: "ag_fs" (the
	// default, volatile) or "ag_cabinet" for the crash-surviving file
	// cabinet. A guard that must outlive a home-host crash needs the
	// cabinet — it is what Resume reads after a restart.
	Store string
	// HopDeadline declares a hop dead after this much report silence
	// (wall clock; default 2s).
	HopDeadline time.Duration
	// MaxRecoveries bounds relaunches (default 3).
	MaxRecoveries int
	// ReinsertLastHop re-queues the dead stop at the head of the
	// recovered itinerary so its work is retried (and skipped by
	// RunItinerary if the stop is still dead) rather than silently lost.
	ReinsertLastHop bool
}

// storeTimeout bounds the snapshot read.
const storeTimeout = 5 * time.Second

// Guard is the stationary half: the home-site supervisor.
type Guard struct {
	cfg Config
	reg *firewall.Registration
	ctx *agent.Context

	done chan error
	once sync.Once

	mu         sync.Mutex
	lastHop    string
	recoveries int
}

// NewGuard registers the supervisor with the home firewall. Close it (or
// let a terminal outcome do so) to release the registration.
func NewGuard(cfg Config) (*Guard, error) {
	if cfg.FW == nil || cfg.Launch == nil {
		return nil, errors.New("rearguard: Config.FW and Config.Launch are required")
	}
	if cfg.Program == "" || cfg.Checkpoint == "" {
		return nil, errors.New("rearguard: Config.Program and Config.Checkpoint are required")
	}
	if cfg.HopDeadline <= 0 {
		cfg.HopDeadline = 2 * time.Second
	}
	if cfg.MaxRecoveries <= 0 {
		cfg.MaxRecoveries = 3
	}
	if cfg.Store == "" {
		cfg.Store = "ag_fs"
	}
	if cfg.AgentName == "" {
		cfg.AgentName = cfg.Program
	}
	reg, err := cfg.FW.Register("rearguard", cfg.FW.SystemPrincipal(), "rg-"+cfg.AgentName)
	if err != nil {
		return nil, err
	}
	return &Guard{
		cfg:  cfg,
		reg:  reg,
		ctx:  agent.NewContext(cfg.FW, reg, briefcase.New(), nil, nil),
		done: make(chan error, 1),
	}, nil
}

// URI returns the guard's routable address — what Launch stamps into the
// agent's _RGHOME folder.
func (g *Guard) URI() string { return g.reg.GlobalURI().String() }

// Launch stamps the briefcase with the guard's address and launches the
// agent on the home VM, then starts supervising. The briefcase's _WRAP
// folder must already name the agent's wrapper stack — conventionally
// the Checkpoint wrapper outside the Beacon, so the pre-move snapshot
// includes the _RGLAST stamp the Beacon just wrote.
func (g *Guard) Launch(bc *briefcase.Briefcase) (*firewall.Registration, error) {
	bc.SetString(briefcase.FolderSysRearGuard, g.URI())
	reg, err := g.cfg.Launch(g.cfg.FW.SystemPrincipal(), g.cfg.AgentName, g.cfg.Program, bc)
	if err != nil {
		g.finish(err)
		return nil, err
	}
	go g.watch()
	return reg, nil
}

// Resume adopts an already-travelling itinerary instead of launching a
// fresh one — the home host crashed and restarted, the original guard
// died with it, and a new guard (same Config, Store pointing at the
// cabinet) picks up from the durable checkpoint. It performs one
// immediate recovery (counted against MaxRecoveries) and then
// supervises as usual. Returns false when that recovery itself reached
// a terminal outcome; Wait reports the detail either way.
func (g *Guard) Resume(cause string) bool {
	if !g.recover(cause) {
		return false
	}
	go g.watch()
	return true
}

// Wait blocks until the guarded itinerary reaches a terminal outcome:
// nil after a done report, ErrUnrecovered / ErrRecoveryFailed when
// recovery gave out, or ErrWaitTimeout when the caller's own deadline
// elapses first (the guard keeps running).
func (g *Guard) Wait(timeout time.Duration) error {
	if timeout <= 0 {
		return <-g.done
	}
	select {
	case err := <-g.done:
		return err
	case <-time.After(timeout):
		return ErrWaitTimeout
	}
}

// Recoveries returns how many relaunches the guard has performed.
func (g *Guard) Recoveries() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recoveries
}

// Close releases the guard's registration. Safe to call more than once.
func (g *Guard) Close() {
	g.finish(ErrClosed)
}

// finish records the terminal outcome exactly once and releases the
// registration, which also unblocks the watcher's Recv.
func (g *Guard) finish(err error) {
	g.once.Do(func() {
		g.done <- err
		g.cfg.FW.Unregister(g.reg)
	})
}

// watch is the supervisor loop: consume reports, declare death on
// silence, recover until the budget runs out.
func (g *Guard) watch() {
	for {
		rep, err := g.reg.Recv(g.cfg.HopDeadline)
		switch {
		case err == nil:
			status, _ := rep.GetString(FolderStatus)
			host, _ := rep.GetString(FolderHost)
			switch status {
			case StatusDone:
				g.finish(nil)
				return
			case StatusHop:
				g.mu.Lock()
				g.lastHop = host
				g.mu.Unlock()
			case StatusFail:
				cause, _ := rep.GetString(FolderCause)
				if !g.recover(fmt.Sprintf("agent faulted on %s: %s", host, cause)) {
					return
				}
			default:
				// Not a report (stray delivery); ignore.
			}
		case errors.Is(err, firewall.ErrRecvTimeout):
			g.mu.Lock()
			last := g.lastHop
			g.mu.Unlock()
			if !g.recover(fmt.Sprintf("no report within %v (last hop %q)", g.cfg.HopDeadline, last)) {
				return
			}
		default:
			// Killed or firewall closed: terminal.
			g.finish(err)
			return
		}
	}
}

// recover restores the last snapshot and relaunches. It returns false
// when the guard reached a terminal outcome (budget exhausted or the
// recovery itself failed).
func (g *Guard) recover(cause string) bool {
	g.mu.Lock()
	g.recoveries++
	n := g.recoveries
	g.mu.Unlock()
	if n > g.cfg.MaxRecoveries {
		g.finish(fmt.Errorf("%w after %d recoveries: %s", ErrUnrecovered, n-1, cause))
		return false
	}

	snap, err := g.readSnapshot()
	if err != nil {
		g.finish(fmt.Errorf("%w: %w", ErrRecoveryFailed, err))
		return false
	}
	if g.cfg.ReinsertLastHop {
		if dead, ok := snap.GetString(FolderLastStop); ok {
			hosts := snap.Ensure(briefcase.FolderHosts)
			if err := hosts.Insert(0, []byte(dead)); err != nil {
				hosts.AppendString(dead)
			}
		}
	}
	snap.Drop(FolderLastStop)
	// Re-stamp the guard address: after a home-host restart the snapshot
	// still names the dead guard's registration, and reports sent there
	// would only ever park and expire.
	snap.SetString(briefcase.FolderSysRearGuard, g.URI())

	tel := g.cfg.FW.Telemetry()
	tel.Registry().Counter("rearguard.recoveries", "host", g.cfg.FW.HostName()).Inc()
	// The snapshot briefcase carries the itinerary's trace context, so the
	// recovery verdict lands on the right timeline in a merged view.
	trace, _ := snap.GetString(briefcase.FolderSysTrace)
	span, _ := snap.GetString(briefcase.FolderSysSpan)
	tel.Events().Append(telemetry.Event{
		Time:      g.cfg.FW.Clock().Now(),
		Type:      telemetry.EventRecover,
		Principal: g.cfg.FW.SystemPrincipal(),
		Target:    g.cfg.AgentName,
		Cause:     cause,
		Trace:     trace,
		Span:      span,
	})

	if _, err := g.cfg.Launch(g.cfg.FW.SystemPrincipal(), g.cfg.AgentName, g.cfg.Program, snap); err != nil {
		g.finish(fmt.Errorf("%w: relaunch: %w", ErrRecoveryFailed, err))
		return false
	}
	return true
}

// readSnapshot fetches and decodes the checkpoint from the home ag_fs.
func (g *Guard) readSnapshot() (*briefcase.Briefcase, error) {
	req := briefcase.New()
	req.SetString("_SVCOP", "get")
	req.SetString("_PATH", g.cfg.Checkpoint)
	resp, err := g.ctx.MeetDirect(g.cfg.Store, req, storeTimeout)
	if err != nil {
		// A store's error reply arrives here as a wrapped RemoteError:
		// errors.Is tells a checkpoint that was never written
		// (services.ErrNoSuchFile) from a store failure.
		return nil, fmt.Errorf("checkpoint %s: %w", g.cfg.Checkpoint, err)
	}
	data, err := resp.Folder("_DATA")
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: no data", g.cfg.Checkpoint)
	}
	raw, err := data.Element(0)
	if err != nil {
		return nil, err
	}
	snap, err := briefcase.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", g.cfg.Checkpoint, err)
	}
	return snap, nil
}
