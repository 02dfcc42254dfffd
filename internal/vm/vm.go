// Package vm implements TAX virtual machines (§3.3).
//
// In TAX it is the responsibility of the virtual machines to execute
// agent code in a safe and secure manner; the firewall simply trusts them
// to do so. VMs register with the firewall like any agent (the paper's
// URI examples address vm_c:933821661 directly), receive moving agents as
// KindTransfer briefcases, and must issue briefcases for all observable
// communication.
//
// Three VMs are provided:
//
//   - GoVM ("vm_go") runs agents that are pre-deployed Go handlers,
//     looked up by the program name carried in the briefcase's CODE
//     folder. This is the reproduction's stand-in for "agents written in
//     any language": Go gives no runtime code loading, so migration is
//     faked by shipping the program name (and, for vm_bin, the simulated
//     binary image) while the executable logic is pre-deployed on every
//     host — exactly the substitution the calibration hint prescribes.
//   - BinVM ("vm_bin") executes binaries "directly on top of the
//     operating system, provided the binary is signed by a trusted
//     principal": it verifies the core signature, picks the carried
//     binary image matching the local architecture, checks it is
//     bit-identical to the locally deployed image, and runs the deployed
//     handler.
//   - CVM ("vm_c", cvm.go) reproduces the figure-3 activation pipeline
//     for agents carried as toy-C source: vm_c → ag_cc → ag_exec →
//     compile → vm_bin.
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

// Handler is the executable body of an agent: the pre-deployed program a
// briefcase's CODE folder names. It runs on its own goroutine with a
// Context bound to a fresh registration; returning agent.ErrMoved means
// the agent relocated and the local instance is done.
type Handler func(ctx *agent.Context) error

// FolderAgentName is the system folder carrying the moving agent's
// registration name inside a transfer briefcase.
const FolderAgentName = "_AGENT"

var (
	// ErrUnknownProgram is returned when the CODE folder names a program
	// that is not deployed on this host.
	ErrUnknownProgram = errors.New("vm: unknown program")
	// ErrClosed is returned after the VM has shut down.
	ErrClosed = errors.New("vm: closed")
)

// Registry maps program names to pre-deployed handlers. A zero Registry
// is ready to use; methods are safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Handler
}

// Register deploys a program. Re-registering a name replaces it.
func (r *Registry) Register(name string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]Handler)
	}
	r.m[name] = h
}

// Lookup resolves a program name.
func (r *Registry) Lookup(name string) (Handler, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.m[name]
	return h, ok
}

// Names returns the deployed program names (unordered).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	return out
}

// Config parameterizes a GoVM.
type Config struct {
	// Name is the VM's registration name; default "vm_go".
	Name string
	// FW is the local firewall. Required.
	FW *firewall.Firewall
	// Programs are the pre-deployed handlers. Required.
	Programs *Registry
	// Signer, when set, signs the core of outgoing transfers so
	// RequireAuth destinations accept them.
	Signer *identity.Principal
	// Bypass enables the §3.3 optimization: communication between agents
	// co-located on this VM skips the firewall.
	Bypass bool
	// SpawnTimeout bounds how long Spawn waits for the remote instance
	// number; zero means 10 seconds.
	SpawnTimeout time.Duration
	// Trace, when set, receives one event string per noteworthy step
	// (used by the figure-3 pipeline test). Format: "<vm>: <event>".
	Trace func(event string)
	// OnAgentDone, when set, is called as each hosted agent finishes,
	// with the terminal error (nil on clean exit, agent.ErrMoved after a
	// move).
	OnAgentDone func(name string, err error)
	// PreLaunch, when set, runs on the agent goroutine before the
	// handler; wiring wrappers carried in the briefcase happens here. An
	// error aborts the activation.
	PreLaunch func(ctx *agent.Context) error
}

// entry tracks one agent hosted by the VM.
type entry struct {
	reg     *firewall.Registration
	program string
}

// GoVM hosts agents that are pre-deployed Go handlers.
type GoVM struct {
	cfg Config
	reg *firewall.Registration

	// ctrActivated/ctrRejected count agent activations; histRun times
	// handler execution in wall-clock terms (nil unless detailed telemetry
	// is on, so the disabled path never reads the wall clock).
	ctrActivated *telemetry.Counter
	ctrRejected  *telemetry.Counter
	ctrSigned    *telemetry.Counter // vm.core_signed, see signCore
	histRun      *telemetry.Histogram

	mu     sync.Mutex
	agents map[uint64]*entry // by instance number
	closed bool

	wg sync.WaitGroup
}

var _ agent.Mover = (*GoVM)(nil)

// New registers a GoVM with the firewall under the system principal and
// starts its control loop.
func New(cfg Config) (*GoVM, error) {
	if cfg.FW == nil {
		return nil, errors.New("vm: config needs a firewall")
	}
	if cfg.Programs == nil {
		return nil, errors.New("vm: config needs a program registry")
	}
	if cfg.Name == "" {
		cfg.Name = "vm_go"
	}
	if cfg.SpawnTimeout == 0 {
		cfg.SpawnTimeout = 10 * time.Second
	}
	reg, err := cfg.FW.Register(cfg.Name, cfg.FW.SystemPrincipal(), cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("vm: register %s: %w", cfg.Name, err)
	}
	v := &GoVM{cfg: cfg, reg: reg, agents: make(map[uint64]*entry)}
	tel := cfg.FW.Telemetry()
	mreg := tel.Registry()
	v.ctrActivated = mreg.Counter("vm.activated", "host", cfg.FW.HostName(), "vm", cfg.Name)
	v.ctrRejected = mreg.Counter("vm.rejected", "host", cfg.FW.HostName(), "vm", cfg.Name)
	v.ctrSigned = coreSignedCounter(cfg.FW, cfg.Name)
	if tel.Detailed() {
		v.histRun = mreg.Histogram("vm.run", "host", cfg.FW.HostName(), "vm", cfg.Name)
	}
	v.wg.Add(1)
	go v.loop(reg)
	return v, nil
}

// Name returns the VM's registration name.
func (v *GoVM) Name() string { return v.cfg.Name }

// registration returns the VM's current firewall registration (it is
// replaced by Reattach after a host crash).
func (v *GoVM) registration() *firewall.Registration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reg
}

// Reattach re-registers the VM with its firewall after a host crash
// wiped every registration, and restarts its control loop. Agents that
// were in flight on the VM are gone — their registrations died with the
// wipe, exactly the volatile-state loss the rear-guard recovers from.
func (v *GoVM) Reattach() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	v.mu.Unlock()
	reg, err := v.cfg.FW.Register(v.cfg.Name, v.cfg.FW.SystemPrincipal(), v.cfg.Name)
	if err != nil {
		return fmt.Errorf("vm: reattach %s: %w", v.cfg.Name, err)
	}
	v.mu.Lock()
	v.reg = reg
	v.agents = make(map[uint64]*entry)
	v.mu.Unlock()
	v.wg.Add(1)
	go v.loop(reg)
	return nil
}

// URI returns the VM's routable URI on its host.
func (v *GoVM) URI() uri.URI { return v.registration().GlobalURI() }

// trace emits an instrumentation event.
func (v *GoVM) trace(format string, args ...any) {
	if v.cfg.Trace != nil {
		v.cfg.Trace(v.cfg.Name + ": " + fmt.Sprintf(format, args...))
	}
}

// loop receives transfers addressed to the VM. It is bound to one
// registration: when that registration is killed (shutdown or crash
// wipe) the loop exits, and a Reattach starts a fresh loop on a fresh
// registration.
func (v *GoVM) loop(self *firewall.Registration) {
	defer v.wg.Done()
	for {
		bc, err := self.Recv(0)
		if err != nil {
			return // killed: firewall or VM shut down
		}
		if firewall.Kind(bc) == firewall.KindTransfer {
			v.acceptTransfer(self, bc)
		}
		// Other kinds addressed at a VM are ignored; management of the
		// VM itself goes through the firewall like for any agent.
	}
}

// acceptTransfer activates a moving agent that arrived in a briefcase.
func (v *GoVM) acceptTransfer(self *firewall.Registration, bc *briefcase.Briefcase) {
	name, ok := bc.GetString(FolderAgentName)
	if !ok {
		name = "agent"
	}
	program, ok := bc.GetString(briefcase.FolderCode)
	if !ok {
		v.rejectTransfer(self, bc, "transfer carries no CODE folder")
		return
	}
	principal := v.transferPrincipal(bc)
	spawned := bc.Has(agent.FolderSpawn)
	msgID, hasMsgID := bc.GetString(firewall.FolderMsgID)
	sender, _ := bc.GetString(briefcase.FolderSysSender)

	scrubTransferFolders(bc)
	reg, err := v.launch(principal, name, program, bc)
	if err != nil {
		v.rejectTransferTo(self, sender, msgID, hasMsgID, err.Error())
		return
	}
	v.trace("activated %s (program %s)", reg.URI(), program)

	// Spawn protocol: report the new instance number back to the caller.
	if spawned && hasMsgID && sender != "" {
		reply := briefcase.New()
		reply.SetString(briefcase.FolderSysTarget, sender)
		reply.SetString(firewall.FolderReplyTo, msgID)
		reply.SetString(agent.FolderInstance, strconv.FormatUint(reg.URI().Instance, 16))
		_ = v.cfg.FW.Send(self.GlobalURI(), reply)
	}
}

// transferPrincipal decides which principal an arriving agent acts for:
// the briefcase's _PRINCIPAL claim, else the sender's principal. The
// claim is returned as written, not verified here: it is a signer's name
// only where the firewall's RequireAuth checked the core signature at
// admission, and otherwise the unsigned claim the sending VM stamped
// (signTransfer), which the policy gate then judges.
func (v *GoVM) transferPrincipal(bc *briefcase.Briefcase) string {
	if p, ok := bc.GetString(briefcase.FolderSysPrincipal); ok {
		return p
	}
	if senderStr, ok := bc.GetString(briefcase.FolderSysSender); ok {
		if su, err := uri.Parse(senderStr); err == nil && su.Principal != "" {
			return su.Principal
		}
	}
	return ""
}

// rejectTransfer reports a failed activation to the transfer's sender.
func (v *GoVM) rejectTransfer(self *firewall.Registration, bc *briefcase.Briefcase, reason string) {
	sender, _ := bc.GetString(briefcase.FolderSysSender)
	id, hasID := bc.GetString(firewall.FolderMsgID)
	v.rejectTransferTo(self, sender, id, hasID, reason)
}

func (v *GoVM) rejectTransferTo(self *firewall.Registration, sender, msgID string, hasMsgID bool, reason string) {
	v.trace("rejected transfer: %s", reason)
	v.ctrRejected.Inc()
	if sender == "" {
		return
	}
	report := briefcase.New()
	report.SetString(briefcase.FolderSysTarget, sender)
	report.SetString(firewall.FolderKind, firewall.KindError)
	report.SetString(briefcase.FolderSysError, reason)
	if hasMsgID {
		report.SetString(firewall.FolderReplyTo, msgID)
	}
	_ = v.cfg.FW.Send(self.GlobalURI(), report)
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
// unstamped, modified or cloned core is hashed and signed.
func signTransfer(bc *briefcase.Briefcase, principal string, signer *identity.Principal, signed *telemetry.Counter) {
	if signer != nil && principal == signer.Name() {
		if _, by, ok := bc.CoreStamp(); !ok || by != principal {
			signCore(bc, signer, signed)
		}
		return
	}
	bc.SetString(briefcase.FolderSysPrincipal, principal)
	bc.Drop(briefcase.FolderSysSignature)
}

// signCore signs bc's core as signer and counts the signature.
func signCore(bc *briefcase.Briefcase, signer *identity.Principal, signed *telemetry.Counter) {
	firewall.SignCore(bc, signer)
	signed.Inc()
}

// coreSignedCounter is vm.core_signed: core signatures the named VM made
// (launches, and moves whose core had changed or was never stamped).
func coreSignedCounter(fw *firewall.Firewall, vm string) *telemetry.Counter {
	return fw.Telemetry().Registry().Counter("vm.core_signed", "host", fw.HostName(), "vm", vm)
}

// Launch starts a fresh agent on this VM: program is resolved in the
// pre-deployed registry, the CODE folder is set so the agent can move
// later, and the handler runs on its own goroutine.
func (v *GoVM) Launch(principal, name, program string, bc *briefcase.Briefcase) (*firewall.Registration, error) {
	if bc == nil {
		bc = briefcase.New()
	}
	bc.SetString(briefcase.FolderCode, program)
	if v.cfg.Signer != nil && principal == v.cfg.Signer.Name() {
		signCore(bc, v.cfg.Signer, v.ctrSigned)
	}
	return v.launch(principal, name, program, bc)
}

func (v *GoVM) launch(principal, name, program string, bc *briefcase.Briefcase) (*firewall.Registration, error) {
	handler, ok := v.cfg.Programs.Lookup(program)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, program)
	}
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil, ErrClosed
	}
	v.mu.Unlock()

	reg, err := v.cfg.FW.Register(v.cfg.Name, principal, name)
	if err != nil {
		return nil, err
	}
	e := &entry{reg: reg, program: program}
	v.mu.Lock()
	v.agents[reg.URI().Instance] = e
	v.mu.Unlock()

	var local agent.LocalResolver
	if v.cfg.Bypass {
		local = v.resolveLocal
	}
	ctx := agent.NewContext(v.cfg.FW, reg, bc, v, local)
	v.ctrActivated.Inc()

	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		sp := v.execSpan(bc, program)
		var t0 time.Time
		if v.histRun != nil {
			t0 = time.Now()
		}
		var err error
		if v.cfg.PreLaunch != nil {
			err = v.cfg.PreLaunch(ctx)
		}
		if err == nil {
			err = runHandler(handler, ctx)
		}
		if v.histRun != nil {
			v.histRun.Observe(time.Since(t0))
		}
		endExec(sp, ctx, err)
		// Wrapper finalizers run before the registration is torn down so
		// they can still communicate on the agent's behalf.
		ctx.Finish(err)
		v.mu.Lock()
		delete(v.agents, reg.URI().Instance)
		v.mu.Unlock()
		v.cfg.FW.Unregister(reg)
		if v.cfg.OnAgentDone != nil {
			v.cfg.OnAgentDone(name, err)
		}
	}()
	return reg, nil
}

// execSpan opens the span covering one local activation — the unit the
// paper's per-hop breakdown measures — and re-points the briefcase's
// parent-span folder at it, so hops and meets the handler performs become
// its children. Nil (no-op) when spans are off or the briefcase carries
// no trace context.
func (v *GoVM) execSpan(bc *briefcase.Briefcase, program string) *telemetry.Span {
	spans := v.cfg.FW.Telemetry().Spans()
	if spans == nil {
		return nil
	}
	trace, ok := bc.GetString(briefcase.FolderSysTrace)
	if !ok {
		return nil
	}
	parent, _ := bc.GetString(briefcase.FolderSysSpan)
	sp := spans.Start(v.cfg.FW.Clock(), v.cfg.FW.HostName(), trace, parent, "vm.exec")
	sp.SetAttr("vm", v.cfg.Name)
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
func (v *GoVM) resolveLocal(target uri.URI, senderPrincipal string) *firewall.Registration {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, e := range v.agents {
		u := e.reg.URI()
		if !u.Matches(target) {
			continue
		}
		if target.Principal == "" && u.Principal != v.cfg.FW.SystemPrincipal() &&
			u.Principal != senderPrincipal {
			continue
		}
		return e.reg
	}
	return nil
}

// Move implements agent.Mover: package the agent's briefcase as a
// KindTransfer and send it to the destination VM. For spawn the briefcase
// is cloned, the local agent keeps running, and the new remote instance
// number is awaited and returned.
func (v *GoVM) Move(c *agent.Context, dest uri.URI, spawn bool) (uint64, error) {
	if dest.Name == "" {
		// Figure 4 itineraries name only hosts; default to a like VM.
		dest.Name = v.cfg.Name
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
	signTransfer(out, c.Registration().URI().Principal, v.cfg.Signer, v.ctrSigned)
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
	v.trace("moved %s to %s (spawn=%v)", c.Registration().URI(), dest, spawn)
	if !spawn {
		return 0, nil
	}
	reply, err := c.AwaitReply(msgID, v.cfg.SpawnTimeout)
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

// Agents returns the instance numbers of agents currently hosted.
func (v *GoVM) Agents() []uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]uint64, 0, len(v.agents))
	for i := range v.agents {
		out = append(out, i)
	}
	return out
}

// Close kills hosted agents, unregisters the VM and waits for goroutines.
func (v *GoVM) Close() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil
	}
	v.closed = true
	regs := make([]*firewall.Registration, 0, len(v.agents))
	for _, e := range v.agents {
		regs = append(regs, e.reg)
	}
	v.mu.Unlock()
	for _, r := range regs {
		v.cfg.FW.Unregister(r)
	}
	v.cfg.FW.Unregister(v.registration())
	v.wg.Wait()
	return nil
}
