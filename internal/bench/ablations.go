package bench

import (
	"errors"
	"fmt"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/firewall"
	"tax/internal/linkmine"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/vm"
	"tax/internal/websim"
)

// Figure3 measures the activation pipeline of figure 3: a toy-C agent
// travelling through vm_c → ag_cc → ag_exec → compile → vm_bin, against
// the baselines of activating a pre-compiled binary on vm_bin directly
// and a native handler on vm_go. The pipeline's extra hops and the
// simulated compiler run are the measured cost.
func Figure3() (*Table, error) {
	t := &Table{
		Title:  "F3 — figure 3: C-agent activation pipeline",
		Note:   "virtual time from transfer arrival to the agent running",
		Header: []string{"path", "activation time", "steps"},
	}

	// Pipeline path: vm_c drives the compile chain.
	{
		sys, err := core.NewSystem(simnet.LAN100)
		if err != nil {
			return nil, err
		}
		defer closeQuiet(sys)
		n, err := sys.AddNode("h1", core.NodeOptions{})
		if err != nil {
			return nil, err
		}
		source := "// program: cagent\nint agMain(briefcase bc) { }\n"
		ran := make(chan time.Duration, 1)
		bin, err := services.CompileBinary(source, n.Arch)
		if err != nil {
			return nil, err
		}
		bin.Handler = func(ctx *agent.Context) error {
			ran <- ctx.Now()
			return nil
		}
		n.Binaries.Deploy(bin)

		launcher, err := n.FW.Register("bench", "system", "launcher")
		if err != nil {
			return nil, err
		}
		start := n.FW.Clock().Now()
		bc := briefcase.New()
		bc.SetString(briefcase.FolderCode, source)
		bc.SetString(firewall.FolderKind, firewall.KindTransfer)
		bc.SetString(vm.FolderAgentName, "cagent")
		bc.SetString(briefcase.FolderSysTarget, "vm_c")
		if err := n.FW.Send(launcher.GlobalURI(), bc); err != nil {
			return nil, err
		}
		select {
		case at := <-ran:
			t.Rows = append(t.Rows, []string{"vm_c pipeline (compile on arrival)", ms(at - start), "7"})
		case <-time.After(30 * time.Second):
			return nil, errors.New("bench: figure-3 pipeline stalled")
		}
	}

	// Baseline: pre-compiled binary straight onto vm_bin.
	{
		sys, err := core.NewSystem(simnet.LAN100)
		if err != nil {
			return nil, err
		}
		defer closeQuiet(sys)
		n, err := sys.AddNode("h1", core.NodeOptions{})
		if err != nil {
			return nil, err
		}
		ran := make(chan time.Duration, 1)
		img := vm.SyntheticImage("cagent", n.Arch, "1.0", 64<<10)
		n.Binaries.Deploy(vm.Binary{
			Name: "cagent", Arch: n.Arch, Version: "1.0", Payload: img,
			Handler: func(ctx *agent.Context) error { ran <- ctx.Now(); return nil },
		})
		launcher, err := n.FW.Register("bench", "system", "launcher")
		if err != nil {
			return nil, err
		}
		start := n.FW.Clock().Now()
		bc := briefcase.New()
		vm.PackBinaries(bc, vm.Binary{Name: "cagent", Arch: n.Arch, Version: "1.0", Payload: img})
		bc.SetString(firewall.FolderKind, firewall.KindTransfer)
		bc.SetString(vm.FolderAgentName, "cagent")
		bc.SetString(briefcase.FolderSysTarget, "vm_bin")
		firewall.SignCore(bc, sys.SystemPrincipal)
		if err := n.FW.Send(launcher.GlobalURI(), bc); err != nil {
			return nil, err
		}
		select {
		case at := <-ran:
			t.Rows = append(t.Rows, []string{"vm_bin transfer (pre-compiled)", ms(at - start), "1"})
		case <-time.After(10 * time.Second):
			return nil, errors.New("bench: vm_bin baseline stalled")
		}
	}

	// Baseline: native Go handler on vm_go.
	{
		sys, err := core.NewSystem(simnet.LAN100)
		if err != nil {
			return nil, err
		}
		defer closeQuiet(sys)
		n, err := sys.AddNode("h1", core.NodeOptions{})
		if err != nil {
			return nil, err
		}
		ran := make(chan time.Duration, 1)
		n.Programs.Register("native", func(ctx *agent.Context) error {
			ran <- ctx.Now()
			return nil
		})
		launcher, err := n.FW.Register("bench", "system", "launcher")
		if err != nil {
			return nil, err
		}
		start := n.FW.Clock().Now()
		bc := briefcase.New()
		bc.SetString(briefcase.FolderCode, "native")
		bc.SetString(firewall.FolderKind, firewall.KindTransfer)
		bc.SetString(vm.FolderAgentName, "native")
		bc.SetString(briefcase.FolderSysTarget, "vm_go")
		if err := n.FW.Send(launcher.GlobalURI(), bc); err != nil {
			return nil, err
		}
		select {
		case at := <-ran:
			t.Rows = append(t.Rows, []string{"vm_go transfer (native)", ms(at - start), "1"})
		case <-time.After(10 * time.Second):
			return nil, errors.New("bench: vm_go baseline stalled")
		}
	}
	return t, nil
}

// T-bc: briefcase state dropping (§3.1). The mobile Webbot drops the
// carried binary (and the rejected-link log) before returning home; this
// ablation measures return-trip bytes and time with and without the
// drop.
func BriefcaseDrop() (*Table, error) {
	t := &Table{
		Title:  "T-bc — §3.1 ablation: briefcase state dropping",
		Note:   "mobile scan with and without dropping the carried binary before the return leg",
		Header: []string{"return policy", "LAN bytes", "scan time"},
	}
	for _, keep := range []bool{false, true} {
		spec := websim.CaseStudySpec("webserv")
		d, err := linkmine.NewDeployment(linkmine.Config{Spec: spec, KeepBinaryOnReturn: keep})
		if err != nil {
			return nil, err
		}
		rep, err := d.RunMobile()
		closeQuietD(d)
		if err != nil {
			return nil, err
		}
		policy := "drop binary (default)"
		if keep {
			policy = "keep binary"
		}
		t.Rows = append(t.Rows, []string{
			policy, fmt.Sprintf("%d", rep.LinkBytes), ms(rep.ScanElapsed),
		})
	}
	return t, nil
}

// T-fw: VM-internal communication bypassing the firewall (§3.3: VMs
// "may, for performance reasons, resolve internal communication without
// involving the firewall"). Real time of co-located RPCs with and
// without the bypass.
func FirewallBypass() (*Table, error) {
	t := &Table{
		Title:  "T-fw — §3.3 ablation: firewall bypass for co-located agents",
		Note:   "real time of 2000 local meet() RPCs between agents on one VM",
		Header: []string{"routing", "per-RPC", "firewall deliveries"},
	}
	for _, bypass := range []bool{false, true} {
		per, deliveries, err := bypassRPCs(bypass, 2000)
		if err != nil {
			return nil, err
		}
		mode := "through firewall"
		if bypass {
			mode = "VM-internal bypass"
		}
		t.Rows = append(t.Rows, []string{
			mode,
			fmt.Sprintf("%.1fµs", float64(per)/float64(time.Microsecond)),
			fmt.Sprintf("%d", deliveries),
		})
	}
	return t, nil
}

type result1 struct {
	d   time.Duration
	err error
}

func bypassRPCs(bypass bool, count int) (time.Duration, int64, error) {
	sys, err := core.NewSystem(simnet.LAN100)
	if err != nil {
		return 0, 0, err
	}
	defer closeQuiet(sys)
	n, err := sys.AddNode("h1", core.NodeOptions{NoCVM: true, NoServices: true, Bypass: bypass})
	if err != nil {
		return 0, 0, err
	}
	n.Programs.Register("echo", func(ctx *agent.Context) error {
		for {
			req, err := ctx.Await(0)
			if err != nil {
				return nil
			}
			if err := ctx.Reply(req, briefcase.New()); err != nil {
				return err
			}
		}
	})
	if _, err := n.VM.Launch("system", "echo", "echo", nil); err != nil {
		return 0, 0, err
	}
	done := make(chan result1, 1)
	n.Programs.Register("caller", func(ctx *agent.Context) error {
		start := time.Now()
		for i := 0; i < count; i++ {
			req := briefcase.New()
			if _, err := ctx.Meet("system/echo", req, 10*time.Second); err != nil {
				done <- result1{err: err}
				return err
			}
		}
		done <- result1{d: time.Since(start) / time.Duration(count)}
		return nil
	})
	if _, err := n.VM.Launch("system", "caller", "caller", nil); err != nil {
		return 0, 0, err
	}
	r := <-done
	if r.err != nil {
		return 0, 0, r.err
	}
	return r.d, n.FW.Telemetry().Registry().Counter("fw.delivered", "host", n.Name).Value(), nil
}

func closeQuiet(s *core.System)          { _ = s.Close() }
func closeQuietD(d *linkmine.Deployment) { _ = d.Close() }
