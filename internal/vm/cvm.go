package vm

import (
	"cmp"
	"errors"
	"fmt"
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

// The fixed parties of figure 3 as vm_c sees them: the compile service
// it calls and how long it waits, the compiler it names, and the binary
// VM it hands the result to.
const (
	ccService      = "ag_cc"
	compileTimeout = 30 * time.Second
	compiler       = "gcc"
	binVM          = "vm_bin"
)

// CConfig parameterizes a CVM.
type CConfig struct {
	// FW is the local firewall. Required.
	FW *firewall.Firewall
	// Arch is the architecture compiled binaries target; default
	// DefaultArch.
	Arch string
	// Signer signs the compiled agent core so the local vm_bin accepts
	// it. Required (vm_bin only runs binaries signed by a trusted
	// principal).
	Signer *identity.Principal
}

// CVM is the C-language virtual machine of figure 3. An agent arrives as
// toy-C source in its CODE folder; the VM drives the compile pipeline
// (ag_cc → ag_exec → compiler) and hands the resulting binary briefcase
// to vm_bin for activation. It runs on the shared runtime with its own
// control loop in place of the loader's.
type CVM struct {
	rt  *runtime
	cfg CConfig
}

// NewC registers a CVM with the firewall and starts its control loop.
func NewC(cfg CConfig) (*CVM, error) {
	if cfg.FW == nil {
		return nil, errors.New("vm: c config needs a firewall")
	}
	if cfg.Signer == nil {
		return nil, errors.New("vm: c config needs a signer")
	}
	cfg.Arch = cmp.Or(cfg.Arch, DefaultArch)
	v := &CVM{rt: newRuntime("vm_c", cfg.FW, cfg.Signer), cfg: cfg}
	if err := v.rt.open(v.loop); err != nil {
		return nil, err
	}
	return v, nil
}

// Reattach re-registers the VM after a host crash wiped every
// registration and starts a fresh control loop over a new context.
func (v *CVM) Reattach() error { return v.rt.Reattach() }

// URI returns the VM's routable URI.
func (v *CVM) URI() uri.URI { return v.rt.URI() }

// Close unregisters the VM and waits for its loop to exit.
func (v *CVM) Close() error { return v.rt.Close() }

// loop serves arriving C agents sequentially, like the single vm_c
// process of the paper.
func (v *CVM) loop(self *firewall.Registration) {
	ctx := agent.NewContext(v.cfg.FW, self, briefcase.New(), nil, nil)
	for {
		bc, err := ctx.Await(0)
		if err != nil {
			return // killed
		}
		if firewall.Kind(bc) != firewall.KindTransfer {
			continue
		}
		if err := v.activate(ctx, self, bc); err != nil {
			sender, _ := bc.GetString(briefcase.FolderSysSender)
			msgID, hasMsgID := bc.GetString(firewall.FolderMsgID)
			v.rt.reject(self, sender, msgID, hasMsgID, err)
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

	// Steps 2–6: the compile RPC. The whole briefcase travels so ag_exec
	// can store the binary into it, as the paper describes.
	req := bc.Clone()
	scrubTransferFolders(req)
	req.SetString(FolderArch, v.cfg.Arch)
	req.SetString(FolderCompiler, compiler)
	compiled, err := ctx.Meet(ccService, req, compileTimeout)
	if err != nil {
		return fmt.Errorf("vm: compile via %s: %w", ccService, err)
	}
	if e, ok := compiled.GetString(briefcase.FolderSysError); ok {
		return fmt.Errorf("vm: compile: %s", e)
	}

	// Step 7: hand to vm_bin. The compiled core (CODE unchanged,
	// BINARIES added) is re-signed by the VM's principal: vm_c vouches
	// for code it compiled locally.
	compiled.SetString(firewall.FolderKind, firewall.KindTransfer)
	compiled.SetString(briefcase.FolderSysTarget, binVM)
	if name, ok := bc.GetString(FolderAgentName); ok {
		compiled.SetString(FolderAgentName, name)
	}
	compiled.Drop(FolderArch)
	compiled.Drop(FolderCompiler)
	compiled.Drop(firewall.FolderReplyTo)
	firewall.SignCore(compiled, v.cfg.Signer)
	v.rt.ctrSigned.Inc()
	return v.cfg.FW.Send(self.GlobalURI(), compiled)
}
