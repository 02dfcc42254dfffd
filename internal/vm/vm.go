// Package vm implements TAX virtual machines (§3.3).
//
// In TAX it is the responsibility of the virtual machines to execute
// agent code in a safe and secure manner; the firewall simply trusts them
// to do so. VMs register with the firewall like any agent (the paper's
// URI examples address vm_c:933821661 directly), receive moving agents as
// KindTransfer briefcases, and must issue briefcases for all observable
// communication.
//
// One runtime (runtime.go) does all of that for every VM kind: register,
// activate and span, Move, Reattach, Close. A kind is a loader,
// which turns an arriving transfer into the agent to run and readies a
// locally launched one:
//
//   - GoVM ("vm_go") runs agents that are pre-deployed Go handlers,
//     looked up by the program name carried in the briefcase's CODE
//     folder. This is the reproduction's stand-in for "agents written in
//     any language": Go gives no runtime code loading, so migration is
//     faked by shipping the program name (and, for vm_bin, the simulated
//     binary image) while the executable logic is pre-deployed on every
//     host.
//   - BinVM ("vm_bin") executes binaries "directly on top of the
//     operating system, provided the binary is signed by a trusted
//     principal": it verifies the core signature, picks the carried
//     binary image matching the local architecture, checks it is
//     bit-identical to the locally deployed image, and runs the deployed
//     handler.
//
// CVM ("vm_c", cvm.go) is a compile front end on the same runtime: it
// reproduces the figure-3 pipeline for agents carried as toy-C source,
// vm_c → ag_cc → ag_exec → compile, and hands the result to vm_bin.
package vm

import (
	"errors"
	"fmt"
	"sync"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
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

	errNoCode = errors.New("transfer carries no CODE folder")
)

// A refused transfer's report carries the refusal's wire code, so its
// sender matches it with errors.Is.
func init() {
	firewall.RegisterErrorCode("vm_unknown_program", ErrUnknownProgram)
	firewall.RegisterErrorCode("vm_no_binary_for_arch", ErrNoBinaryForArch)
	firewall.RegisterErrorCode("vm_binary_mismatch", ErrBinaryMismatch)
	firewall.RegisterErrorCode("vm_not_deployed", ErrNotDeployed)
}

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

// Config parameterizes a GoVM.
type Config struct {
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
	// PreLaunch, when set, runs on the agent goroutine before the
	// handler; wiring wrappers carried in the briefcase happens here. An
	// error aborts the activation.
	PreLaunch func(ctx *agent.Context) error
}

// GoVM hosts agents that are pre-deployed Go handlers: its loader reads
// the program name from CODE and looks it up in the Registry.
type GoVM struct {
	*runtime
	programs *Registry
}

// New registers a GoVM with the firewall under the system principal and
// starts its control loop.
func New(cfg Config) (*GoVM, error) {
	if cfg.FW == nil {
		return nil, errors.New("vm: config needs a firewall")
	}
	if cfg.Programs == nil {
		return nil, errors.New("vm: config needs a program registry")
	}
	v := &GoVM{runtime: newRuntime("vm_go", cfg.FW, cfg.Signer), programs: cfg.Programs}
	v.load, v.preLaunch = v, cfg.PreLaunch
	if cfg.Bypass {
		v.local = v.resolveLocal
	}
	if tel := cfg.FW.Telemetry(); tel.Detailed() {
		v.histRun = tel.Registry().Histogram("vm.run", "host", cfg.FW.HostName(), "vm", v.name)
	}
	if err := v.open(v.loop); err != nil {
		return nil, err
	}
	return v, nil
}

// arrive loads the program a transfer's CODE folder names. The agent's
// principal is the _PRINCIPAL claim (transferPrincipal); its default
// name is "agent".
func (v *GoVM) arrive(bc *briefcase.Briefcase) (activation, error) {
	program, ok := bc.GetString(briefcase.FolderCode)
	if !ok {
		return activation{}, errNoCode
	}
	h, err := v.lookup(program)
	if err != nil {
		return activation{}, err
	}
	return activation{transferPrincipal(bc), agentName(bc, "agent"), program, h}, nil
}

// prepare resolves program and sets CODE so the agent can move later.
func (v *GoVM) prepare(program string, bc *briefcase.Briefcase) (Handler, error) {
	h, err := v.lookup(program)
	if err == nil {
		bc.SetString(briefcase.FolderCode, program)
	}
	return h, err
}

func (v *GoVM) lookup(program string) (Handler, error) {
	if h, ok := v.programs.Lookup(program); ok {
		return h, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, program)
}

// agentName is the registration name a transfer carries, else def.
func agentName(bc *briefcase.Briefcase, def string) string {
	if name, ok := bc.GetString(FolderAgentName); ok {
		return name
	}
	return def
}

// transferPrincipal decides which principal an arriving agent acts for:
// the briefcase's _PRINCIPAL claim, else the sender's principal. The
// claim is returned as written, not verified here: it is a signer's name
// only where the firewall's RequireAuth checked the core signature at
// admission, and otherwise the unsigned claim the sending VM stamped
// (signTransfer), which the policy gate then judges.
func transferPrincipal(bc *briefcase.Briefcase) string {
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
