package vm

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/telemetry"
	"tax/internal/uri"
)

// spawnTimeout bounds how long a spawn waits for the remote instance
// number.
const spawnTimeout = 10 * time.Second

// loader is what one VM kind adds to the shared runtime: how an arriving
// transfer becomes an agent, and how a local launch readies one.
type loader interface {
	// arrive resolves a transfer into the agent to activate, or the
	// reason it is refused.
	arrive(bc *briefcase.Briefcase) (activation, error)
	// prepare resolves a locally launched program and readies bc to
	// carry it on later moves.
	prepare(program string, bc *briefcase.Briefcase) (Handler, error)
}

// activation is an arriving agent as its loader resolved it.
type activation struct {
	principal, name, program string
	run                      Handler
}

// runtime is the part of a VM that does not depend on how agent code is
// loaded: the VM's registration and control loop, the hosted-agent
// table, activation, the spawn and reject replies, Move, Reattach and
// Close.
type runtime struct {
	name      string
	fw        *firewall.Firewall
	signer    *identity.Principal
	load      loader // nil on vm_c, which serves its own loop
	serve     func(self *firewall.Registration)
	local     agent.LocalResolver // the §3.3 bypass; nil unless enabled
	preLaunch func(ctx *agent.Context) error

	// ctrActivated/ctrRejected count activations; histRun times handler
	// execution in wall-clock terms (vm_go only, and nil unless detailed
	// telemetry is on, so the disabled path never reads the wall clock).
	ctrActivated *telemetry.Counter
	ctrRejected  *telemetry.Counter
	ctrSigned    *telemetry.Counter // vm.core_signed, see signTransfer
	histRun      *telemetry.Histogram

	mu     sync.Mutex
	reg    *firewall.Registration
	agents map[uint64]*firewall.Registration // by instance number
	closed bool

	wg sync.WaitGroup
}

var _ agent.Mover = (*runtime)(nil)

func newRuntime(name string, fw *firewall.Firewall, signer *identity.Principal) *runtime {
	mreg, host := fw.Telemetry().Registry(), fw.HostName()
	return &runtime{
		name: name, fw: fw, signer: signer,
		ctrActivated: mreg.Counter("vm.activated", "host", host, "vm", name),
		ctrRejected:  mreg.Counter("vm.rejected", "host", host, "vm", name),
		ctrSigned:    mreg.Counter("vm.core_signed", "host", host, "vm", name),
	}
}

// open registers the VM under the system principal and starts serve as
// its control loop.
func (rt *runtime) open(serve func(self *firewall.Registration)) error {
	rt.serve = serve
	return rt.attach("register")
}

// attach registers the VM and starts a control loop bound to that
// registration: when it is killed (shutdown or crash wipe) the loop
// exits, and a Reattach starts a fresh one.
func (rt *runtime) attach(verb string) error {
	reg, err := rt.fw.Register(rt.name, rt.fw.SystemPrincipal(), rt.name)
	if err != nil {
		return fmt.Errorf("vm: %s %s: %w", verb, rt.name, err)
	}
	rt.mu.Lock()
	rt.reg = reg
	rt.agents = make(map[uint64]*firewall.Registration)
	rt.mu.Unlock()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.serve(reg)
	}()
	return nil
}

// Name returns the VM's registration name.
func (rt *runtime) Name() string { return rt.name }

// URI returns the VM's routable URI on its host.
func (rt *runtime) URI() uri.URI {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reg.GlobalURI()
}

// Reattach re-registers the VM with its firewall after a host crash
// wiped every registration, and restarts its control loop. Agents that
// were in flight on the VM are gone — their registrations died with the
// wipe, exactly the volatile-state loss the rear-guard recovers from.
func (rt *runtime) Reattach() error {
	rt.mu.Lock()
	closed := rt.closed
	rt.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return rt.attach("reattach")
}

// loop receives transfers addressed to the VM. Other kinds addressed at
// a VM are ignored; management of the VM itself goes through the
// firewall like for any agent.
func (rt *runtime) loop(self *firewall.Registration) {
	for {
		bc, err := self.Recv(0)
		if err != nil {
			return // killed: firewall or VM shut down
		}
		if firewall.Kind(bc) == firewall.KindTransfer {
			rt.accept(self, bc)
		}
	}
}

// accept activates a moving agent that arrived in a briefcase, and
// reports a spawned one's instance number back to its parent.
func (rt *runtime) accept(self *firewall.Registration, bc *briefcase.Briefcase) {
	sender, _ := bc.GetString(briefcase.FolderSysSender)
	msgID, hasMsgID := bc.GetString(firewall.FolderMsgID)
	a, err := rt.load.arrive(bc)
	if err != nil {
		rt.reject(self, sender, msgID, hasMsgID, err)
		return
	}
	spawned := bc.Has(agent.FolderSpawn)
	scrubTransferFolders(bc)
	reg, err := rt.start(a.principal, a.name, a.program, a.run, bc)
	if err != nil {
		rt.reject(self, sender, msgID, hasMsgID, err)
		return
	}
	if spawned && hasMsgID && sender != "" {
		reply := briefcase.New()
		reply.SetString(briefcase.FolderSysTarget, sender)
		reply.SetString(firewall.FolderReplyTo, msgID)
		reply.SetString(agent.FolderInstance, strconv.FormatUint(reg.URI().Instance, 16))
		_ = rt.fw.Send(self.GlobalURI(), reply)
	}
}

// reject reports a failed activation to the transfer's sender, typed:
// the report carries err's wire code when it has one.
func (rt *runtime) reject(self *firewall.Registration, sender, msgID string, hasMsgID bool, err error) {
	rt.ctrRejected.Inc()
	if sender == "" {
		return
	}
	report := briefcase.New()
	report.SetString(briefcase.FolderSysTarget, sender)
	report.SetString(firewall.FolderKind, firewall.KindError)
	firewall.SetError(report, err)
	if hasMsgID {
		report.SetString(firewall.FolderReplyTo, msgID)
	}
	_ = rt.fw.Send(self.GlobalURI(), report)
}

// scrubTransferFolders strips routing state so the agent restarts with a
// clean briefcase. The core signature and principal stay: the core is
// unchanged and future moves reuse them.
func scrubTransferFolders(bc *briefcase.Briefcase) {
	bc.Drop(firewall.FolderKind)
	bc.Drop(briefcase.FolderSysTarget)
	bc.Drop(agent.FolderSpawn)
	bc.Drop(firewall.FolderMsgID)
}

// Launch starts a fresh agent on this VM: the loader resolves program
// and readies the briefcase to carry it, and the handler runs on its own
// goroutine. The core is not signed here: signTransfer signs it on the
// first move or spawn that takes it off this host, so an agent that never
// leaves never pays for a signature.
func (rt *runtime) Launch(principal, name, program string, bc *briefcase.Briefcase) (*firewall.Registration, error) {
	if bc == nil {
		bc = briefcase.New()
	}
	h, err := rt.load.prepare(program, bc)
	if err != nil {
		return nil, err
	}
	return rt.start(principal, name, program, h, bc)
}

// start registers the agent and runs h on its own goroutine.
func (rt *runtime) start(principal, name, program string, h Handler, bc *briefcase.Briefcase) (*firewall.Registration, error) {
	rt.mu.Lock()
	closed := rt.closed
	rt.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	reg, err := rt.fw.Register(rt.name, principal, name)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	rt.agents[reg.URI().Instance] = reg
	rt.mu.Unlock()
	ctx := agent.NewContext(rt.fw, reg, bc, rt, rt.local)
	rt.ctrActivated.Inc()
	rt.wg.Add(1)
	go rt.run(ctx, program, h)
	return reg, nil
}

// run is one activation's goroutine: PreLaunch, the handler, the span,
// then teardown.
func (rt *runtime) run(ctx *agent.Context, program string, h Handler) {
	defer rt.wg.Done()
	reg := ctx.Registration()
	sp := rt.execSpan(ctx.Briefcase(), program)
	var t0 time.Time
	if rt.histRun != nil {
		t0 = time.Now()
	}
	var err error
	if rt.preLaunch != nil {
		err = rt.preLaunch(ctx)
	}
	if err == nil {
		err = runHandler(h, ctx)
	}
	if rt.histRun != nil {
		rt.histRun.Observe(time.Since(t0))
	}
	endExec(sp, ctx, err)
	// Wrapper finalizers run before the registration is torn down so
	// they can still communicate on the agent's behalf.
	ctx.Finish(err)
	rt.mu.Lock()
	delete(rt.agents, reg.URI().Instance)
	rt.mu.Unlock()
	rt.fw.Unregister(reg)
}

// execSpan opens the span covering one local activation — the unit the
// paper's per-hop breakdown measures — and re-points the briefcase's
// parent-span folder at it, so hops and meets the handler performs become
// its children. Nil (no-op) when spans are off or the briefcase carries
// no trace context.
func (rt *runtime) execSpan(bc *briefcase.Briefcase, program string) *telemetry.Span {
	spans := rt.fw.Telemetry().Spans()
	if spans == nil {
		return nil
	}
	trace, ok := bc.GetString(briefcase.FolderSysTrace)
	if !ok {
		return nil
	}
	parent, _ := bc.GetString(briefcase.FolderSysSpan)
	sp := spans.Start(rt.fw.Clock(), rt.fw.HostName(), trace, parent, "vm.exec")
	sp.SetAttr("vm", rt.name)
	sp.SetAttr("program", program)
	bc.SetString(briefcase.FolderSysSpan, sp.ID())
	return sp
}

// endExec closes an activation span. An agent that moved ends where it
// left, at its transfer's hand-off, not at the clock after the handler
// returned, which deliveries to this host may since have advanced.
func endExec(sp *telemetry.Span, ctx *agent.Context, err error) {
	if !errors.Is(err, agent.ErrMoved) {
		sp.SetErr(err)
		sp.End()
		return
	}
	if at, ok := ctx.Departure(); ok {
		sp.EndAt(at)
		return
	}
	sp.End()
}

// runHandler isolates handler panics the way OS memory protection
// isolates a crashing process: the VM survives and reports the fault.
func runHandler(h Handler, ctx *agent.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("vm: agent panicked: %v", r)
		}
	}()
	return h(ctx)
}

// resolveLocal implements the bypass: match a local target against agents
// co-located on this VM, honoring the empty-principal rule.
func (rt *runtime) resolveLocal(target uri.URI, senderPrincipal string) *firewall.Registration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, reg := range rt.agents {
		u := reg.URI()
		if !u.Matches(target) {
			continue
		}
		if target.Principal == "" && u.Principal != rt.fw.SystemPrincipal() &&
			u.Principal != senderPrincipal {
			continue
		}
		return reg
	}
	return nil
}

// Move implements agent.Mover: package the agent's briefcase as a
// KindTransfer and send it to the destination VM. The code travels as
// the loader left it in the briefcase (CODE, BINARIES), and the core is
// re-signed (signTransfer) only if it changed since it was last signed
// or verified. For spawn the briefcase is cloned, the local agent keeps
// running, and the new remote instance number is awaited and returned.
func (rt *runtime) Move(c *agent.Context, dest uri.URI, spawn bool) (uint64, error) {
	if dest.Name == "" {
		// Figure 4 itineraries name only hosts; default to a like VM.
		dest.Name = rt.name
	}
	out := c.Briefcase()
	if spawn {
		out = out.Clone()
	}
	out.SetString(firewall.FolderKind, firewall.KindTransfer)
	out.SetString(FolderAgentName, c.Registration().URI().Name)
	out.SetString(briefcase.FolderSysTarget, dest.String())
	var msgID string
	if spawn {
		msgID = agent.NextMsgID()
		out.SetString(agent.FolderSpawn, "1")
		out.SetString(firewall.FolderMsgID, msgID)
	}
	signTransfer(out, c.Registration().URI().Principal, rt.signer, rt.ctrSigned)
	// The transfer goes out through the agent's send path so wrappers
	// observe the departure (a move is a send like any other in §4's
	// minimal interface).
	if err := c.Activate(dest.String(), out); err != nil {
		// The move failed in transport; restore the briefcase for
		// continued local execution.
		scrubTransferFolders(out)
		out.Drop(FolderAgentName)
		return 0, err
	}
	if !spawn {
		return 0, nil
	}
	reply, err := c.AwaitReply(msgID, spawnTimeout)
	if err != nil {
		return 0, fmt.Errorf("vm: spawn reply: %w", err)
	}
	instStr, ok := reply.GetString(agent.FolderInstance)
	if !ok {
		return 0, errors.New("vm: spawn reply lacks instance")
	}
	inst, err := strconv.ParseUint(instStr, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("vm: spawn reply instance: %w", err)
	}
	return inst, nil
}

// signTransfer stamps an outgoing transfer's principal claim. The host
// signer may only vouch for agents acting as its own principal — signing
// a tenant agent's core with the system key would re-principal the agent
// as system on arrival, exempting it from every destination's policy
// gate. For any other principal the claim is stamped unsigned (and any
// stale signature from a prior hop dropped), so the arrival VM activates
// the agent as the principal it actually acts for.
//
// An agent acting as the signer's principal whose briefcase holds a core
// stamp for that principal goes out untouched: the stamp says CODE,
// BINARIES, _PRINCIPAL and _SIGNATURE are exactly as they were when that
// signature was made or verified, so there is nothing to re-sign. An
// unstamped core — one leaving the host it was launched on for the first
// time, or modified or cloned since — is hashed and signed.
func signTransfer(bc *briefcase.Briefcase, principal string, signer *identity.Principal, signed *telemetry.Counter) {
	if signer != nil && principal == signer.Name() {
		if _, by, ok := bc.CoreStamp(); !ok || by != principal {
			firewall.SignCore(bc, signer)
			signed.Inc()
		}
		return
	}
	bc.SetString(briefcase.FolderSysPrincipal, principal)
	bc.Drop(briefcase.FolderSysSignature)
}

// Agents returns the instance numbers of agents currently hosted.
func (rt *runtime) Agents() []uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]uint64, 0, len(rt.agents))
	for i := range rt.agents {
		out = append(out, i)
	}
	return out
}

// Close kills hosted agents, unregisters the VM and waits for its
// goroutines. A second Close is a no-op.
func (rt *runtime) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	regs := make([]*firewall.Registration, 0, len(rt.agents)+1)
	for _, reg := range rt.agents {
		regs = append(regs, reg)
	}
	regs = append(regs, rt.reg)
	rt.mu.Unlock()
	for _, reg := range regs {
		rt.fw.Unregister(reg)
	}
	rt.wg.Wait()
	return nil
}
