package vm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/uri"
)

// Compile-protocol folders exchanged between vm_c, ag_cc and ag_exec
// (figure 3). They live here so the services package can share them
// without an import cycle.
const (
	// FolderArch names the architecture the compile targets.
	FolderArch = "_ARCH"
	// FolderCompiler names the compiler ag_exec should run ("gcc").
	FolderCompiler = "_COMPILER"
)

// CConfig parameterizes a CVM.
type CConfig struct {
	// Name is the VM's registration name; default "vm_c".
	Name string
	// FW is the local firewall. Required.
	FW *firewall.Firewall
	// Arch is the architecture compiled binaries target; default
	// DefaultArch.
	Arch string
	// Signer signs the compiled agent core so the local vm_bin accepts
	// it. Required (vm_bin only runs binaries signed by a trusted
	// principal).
	Signer *identity.Principal
	// BinVM is the registration name of the local binary VM that
	// ultimately activates the compiled agent; default "vm_bin".
	BinVM string
	// CCService is the compile service's agent name; default "ag_cc".
	CCService string
	// Compiler is the compiler command passed along; default "gcc".
	Compiler string
	// Timeout bounds the compile RPC; zero means 30 seconds.
	Timeout time.Duration
	// Trace receives instrumentation events (the figure-3 test asserts
	// the step sequence).
	Trace func(event string)
}

// CVM is the C-language virtual machine of figure 3. An agent arrives as
// toy-C source in its CODE folder; the VM drives the compile pipeline
// (ag_cc → ag_exec → compiler) and hands the resulting binary briefcase
// to vm_bin for activation.
type CVM struct {
	cfg  CConfig
	mu   sync.Mutex
	reg  *firewall.Registration
	ctx  *agent.Context
	done chan struct{}
}

// NewC registers a CVM with the firewall and starts its control loop.
func NewC(cfg CConfig) (*CVM, error) {
	if cfg.FW == nil {
		return nil, errors.New("vm: c config needs a firewall")
	}
	if cfg.Signer == nil {
		return nil, errors.New("vm: c config needs a signer")
	}
	if cfg.Name == "" {
		cfg.Name = "vm_c"
	}
	if cfg.Arch == "" {
		cfg.Arch = DefaultArch
	}
	if cfg.BinVM == "" {
		cfg.BinVM = "vm_bin"
	}
	if cfg.CCService == "" {
		cfg.CCService = "ag_cc"
	}
	if cfg.Compiler == "" {
		cfg.Compiler = "gcc"
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	reg, err := cfg.FW.Register(cfg.Name, cfg.FW.SystemPrincipal(), cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("vm: register %s: %w", cfg.Name, err)
	}
	v := &CVM{cfg: cfg, reg: reg, done: make(chan struct{})}
	v.ctx = agent.NewContext(cfg.FW, reg, briefcase.New(), nil, nil)
	go v.loop(v.ctx, reg, v.done)
	return v, nil
}

// registration returns the VM's current firewall registration (replaced
// by Reattach after a host crash).
func (v *CVM) registration() *firewall.Registration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reg
}

// doneCh returns the channel closed when the current loop exits.
func (v *CVM) doneCh() chan struct{} {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.done
}

// Reattach re-registers the VM after a host crash wiped every
// registration and starts a fresh control loop over a new context.
func (v *CVM) Reattach() error {
	reg, err := v.cfg.FW.Register(v.cfg.Name, v.cfg.FW.SystemPrincipal(), v.cfg.Name)
	if err != nil {
		return fmt.Errorf("vm: reattach %s: %w", v.cfg.Name, err)
	}
	ctx := agent.NewContext(v.cfg.FW, reg, briefcase.New(), nil, nil)
	done := make(chan struct{})
	v.mu.Lock()
	v.reg = reg
	v.ctx = ctx
	v.done = done
	v.mu.Unlock()
	go v.loop(ctx, reg, done)
	return nil
}

// URI returns the VM's routable URI.
func (v *CVM) URI() uri.URI { return v.registration().GlobalURI() }

func (v *CVM) trace(format string, args ...any) {
	if v.cfg.Trace != nil {
		v.cfg.Trace(v.cfg.Name + ": " + fmt.Sprintf(format, args...))
	}
}

// loop serves arriving C agents sequentially, like the single vm_c
// process of the paper.
func (v *CVM) loop(ctx *agent.Context, self *firewall.Registration, done chan struct{}) {
	defer close(done)
	for {
		bc, err := ctx.Await(0)
		if err != nil {
			return // killed
		}
		if firewall.Kind(bc) != firewall.KindTransfer {
			continue
		}
		if err := v.activate(ctx, self, bc); err != nil {
			v.trace("activation failed: %v", err)
			v.reject(self, bc, err.Error())
		}
	}
}

// activate drives figure 3 for one arriving agent:
//
//	(1) the briefcase containing the agent is delivered to vm_c
//	(2) vm_c activates ag_cc, which extracts the code
//	(3) ag_cc activates ag_exec with the code and compiler as arguments
//	(4) ag_exec runs the compiler
//	(5) ag_exec stores the binary in the briefcase and returns it to ag_cc
//	(6) ag_cc returns the binary to vm_c
//	(7) vm_c uses vm_bin to activate the agent
func (v *CVM) activate(ctx *agent.Context, self *firewall.Registration, bc *briefcase.Briefcase) error {
	if !bc.Has(briefcase.FolderCode) {
		return errors.New("vm: C transfer carries no CODE folder")
	}
	v.trace("step 1: briefcase delivered")

	// Steps 2–6: the compile RPC. The whole briefcase travels so ag_exec
	// can store the binary into it, as the paper describes.
	req := bc.Clone()
	scrubTransferFolders(req)
	req.SetString(FolderArch, v.cfg.Arch)
	req.SetString(FolderCompiler, v.cfg.Compiler)
	v.trace("step 2: activate %s", v.cfg.CCService)
	compiled, err := ctx.Meet(v.cfg.CCService, req, v.cfg.Timeout)
	if err != nil {
		return fmt.Errorf("vm: compile via %s: %w", v.cfg.CCService, err)
	}
	if e, ok := compiled.GetString(briefcase.FolderSysError); ok {
		return fmt.Errorf("vm: compile: %s", e)
	}
	v.trace("step 6: binary returned")

	// Step 7: hand to vm_bin. The compiled core (CODE unchanged,
	// BINARIES added) is re-signed by the VM's principal: vm_c vouches
	// for code it compiled locally.
	compiled.SetString(firewall.FolderKind, firewall.KindTransfer)
	compiled.SetString(briefcase.FolderSysTarget, v.cfg.BinVM)
	if name, ok := bc.GetString(FolderAgentName); ok {
		compiled.SetString(FolderAgentName, name)
	}
	compiled.Drop(FolderArch)
	compiled.Drop(FolderCompiler)
	compiled.Drop(firewall.FolderReplyTo)
	signCore(compiled, v.cfg.Signer, coreSignedCounter(v.cfg.FW, v.cfg.Name))
	v.trace("step 7: activate via %s", v.cfg.BinVM)
	return v.cfg.FW.Send(self.GlobalURI(), compiled)
}

// reject reports an activation failure to the transfer's sender.
func (v *CVM) reject(self *firewall.Registration, bc *briefcase.Briefcase, reason string) {
	sender, ok := bc.GetString(briefcase.FolderSysSender)
	if !ok {
		return
	}
	report := briefcase.New()
	report.SetString(briefcase.FolderSysTarget, sender)
	report.SetString(firewall.FolderKind, firewall.KindError)
	report.SetString(briefcase.FolderSysError, reason)
	if id, ok := bc.GetString(firewall.FolderMsgID); ok {
		report.SetString(firewall.FolderReplyTo, id)
	}
	_ = v.cfg.FW.Send(self.GlobalURI(), report)
}

// Close unregisters the VM and waits for its loop to exit.
func (v *CVM) Close() error {
	v.cfg.FW.Unregister(v.registration())
	<-v.doneCh()
	return nil
}
