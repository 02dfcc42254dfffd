// Package core wires the TAX kernel into deployable hosts.
//
// A Node is one machine of figure 1: a firewall fronting a set of virtual
// machines (vm_go, vm_bin, vm_c) and the standard service agents (ag_cc,
// ag_exec, ag_fs, ag_cron). A System is a simulated distributed
// deployment: several nodes joined by a simnet.Network. The public root
// package tax re-exports this API.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/directory"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/telemetry"
	"tax/internal/tower"
	"tax/internal/vm"
	"tax/internal/wrapper"
)

// NodeOptions tune one host. The zero value gives a standard node.
type NodeOptions struct {
	// Arch is the machine architecture tag; default vm.DefaultArch.
	Arch string
	// Bypass enables VM-internal delivery between co-located agents.
	Bypass bool
	// RequireAuth makes the firewall reject unsigned inbound transfers.
	RequireAuth bool
	// QueueTimeout overrides the firewall's parked-message timeout.
	QueueTimeout time.Duration
	// ForwardRetry is the node's default retry policy for remote
	// forwards (briefcases may override it via _RETRY).
	ForwardRetry firewall.RetryPolicy
	// DedupWindow enables inbound duplicate-frame suppression on the
	// node's firewall (see firewall.Config.DedupWindow).
	DedupWindow int
	// Trace receives kernel instrumentation events.
	Trace func(event string)
	// NoServices skips launching the standard service agents.
	NoServices bool
	// NoCVM skips the C virtual machine and its compile services.
	NoCVM bool
	// OnAgentDone observes every agent completion on this node's VMs
	// (nil on clean exit, agent.ErrMoved after a move, else the fault).
	OnAgentDone func(name string, err error)
	// SecureChannels signs every inter-firewall frame with a per-host
	// firewall principal and rejects unsigned or untrusted inbound
	// frames (§3.2's "authenticated and trusted sender").
	SecureChannels bool
	// Telemetry overrides the telemetry instance this node's firewall
	// reports into. Nil uses the system-wide instance when one was enabled
	// (EnableTelemetry), else a private counters-only instance.
	Telemetry *telemetry.Telemetry
	// FsyncCost is the simulated latency of one fsync on the node's
	// cabinet disk; zero uses cabinet.DefaultSyncLatency.
	FsyncCost time.Duration
	// SnapshotEvery is the cabinet's WAL-compaction interval in committed
	// transactions; negative disables snapshots (pure WAL). Zero, the
	// default, compacts once the WAL written since the last snapshot
	// outweighs the table (cabinet.Options.SnapshotEvery).
	SnapshotEvery int
	// Batch enables coalesced outbound mediation on the node's firewall
	// (see firewall.BatchConfig); nil sends every frame individually.
	Batch *firewall.BatchConfig
	// Relay makes the node's firewall forward inbound frames whose
	// target is another host toward their next hop (header-only
	// re-mediation, wire bytes forwarded verbatim — see
	// firewall.Config.Relay). Off keeps the original
	// drop-third-party-traffic behavior.
	Relay bool
	// Resolve maps an agent-URI host and port to a transport address;
	// nil means the host name is the transport address. Relay nodes use
	// it as their next-hop table.
	Resolve func(host string, port int) (string, error)
	// GroupCommit coalesces concurrent cabinet Commit callers into
	// shared fsyncs (see cabinet.Options.GroupCommit); GroupMaxTxns
	// bounds the coalesce window (zero: cabinet.DefaultGroupMaxTxns).
	GroupCommit  bool
	GroupMaxTxns int
	// Policy, when non-empty, is the node's initial policy ruleset text
	// (see internal/policy for the grammar). It is parsed at AddNode —
	// a bad ruleset fails the boot, not a later mediation — and
	// installed as version 1 of the node's policy engine. Hot reload
	// goes through FW.ReloadPolicy or the "policyload" management op.
	Policy string
	// Quota, when non-nil, is the default per-principal quota applied
	// to principals no quota rule matches. Setting only Quota (no
	// Policy) runs the engine with the allow-all compatibility ruleset:
	// legacy mediation decisions, metered.
	Quota *policy.Quota
}

// Node is one TAX host: firewall, VMs, service agents and local stores.
type Node struct {
	// Name is the host name in agent URIs.
	Name string
	// FW is the host firewall.
	FW *firewall.Firewall
	// VM is the Go-handler virtual machine (vm_go).
	VM *vm.GoVM
	// BinVM is the signed-binary virtual machine (vm_bin).
	BinVM *vm.BinVM
	// CVM is the C virtual machine (vm_c); nil with NoCVM.
	CVM *vm.CVM
	// Programs is the host's pre-deployed program registry.
	Programs *vm.Registry
	// Binaries is the host's deployed-binary inventory.
	Binaries *vm.BinaryStore
	// Wrappers is the host's deployed wrapper registry; stacks named in
	// a travelling agent's _WRAP folder are rebuilt from it on arrival.
	Wrappers *wrapper.Registry
	// WrapperSpecs generates wrapper stacks declared in a briefcase's
	// _WRAPSPEC folder (the paper's "automatic generation of layers of
	// wrappers"); the built-in layer kinds are pre-registered.
	WrapperSpecs *wrapper.SpecRegistry
	// Dir is the node's directory plane member when the deployment
	// enabled the plane and this node is in its ring, else nil.
	Dir *directory.Server
	// Host is the simulated machine carrying the node.
	Host *simnet.Host
	// Arch is the host architecture tag.
	Arch string
	// Disk is the host's simulated durable disk.
	Disk *cabinet.Disk
	// Cabinet is the host's durable file-cabinet store (WAL + snapshots
	// on Disk). It survives Net.Crash/Net.Restart; everything else on the
	// node is volatile.
	Cabinet *cabinet.Store

	sys    *System
	opts   NodeOptions
	tel    *telemetry.Telemetry
	ownTel bool // tel is exclusive to this host (tower mode): a crash wipes it
}

// Telemetry returns the telemetry instance this node reports into: the
// per-host instance in tower mode, else the shared or configured one (nil
// when telemetry was never enabled).
func (n *Node) Telemetry() *telemetry.Telemetry { return n.tel }

// Recover relaunches an agent from a checkpoint stored by the
// wrapper.Checkpoint passive-replication wrapper: the snapshot is read
// back from this node's file service and the program activated with the
// recovered briefcase — the home site resuming a crashed or lost agent
// from its last consistent state.
func (n *Node) Recover(principal, name, program, checkpointPath string) (*firewall.Registration, error) {
	return n.RecoverVia("ag_fs", principal, name, program, checkpointPath)
}

// RecoverVia is Recover reading the checkpoint from a chosen store
// service: "ag_fs" for the fast volatile store, "ag_cabinet" for the
// crash-surviving file cabinet (a checkpoint that must outlive a home
// host crash belongs in the cabinet).
func (n *Node) RecoverVia(storeService, principal, name, program, checkpointPath string) (*firewall.Registration, error) {
	reg, err := n.FW.Register("recovery", n.FW.SystemPrincipal(), "recovery")
	if err != nil {
		return nil, err
	}
	defer n.FW.Unregister(reg)
	ctx := agent.NewContext(n.FW, reg, briefcase.New(), nil, nil)

	req := briefcase.New()
	req.SetString(services.FolderOp, "get")
	req.SetString(services.FolderPath, checkpointPath)
	resp, err := ctx.MeetDirect(storeService, req, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: %w", checkpointPath, err)
	}
	if rerr, ok := firewall.RemoteErrorFrom(resp); ok {
		// Typed: errors.Is(err, services.ErrNoSuchFile) distinguishes a
		// pruned checkpoint from a store failure.
		return nil, fmt.Errorf("core: recover %s: %w", checkpointPath, rerr)
	}
	data, err := resp.Folder(services.FolderData)
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: no data", checkpointPath)
	}
	raw, err := data.Element(0)
	if err != nil {
		return nil, err
	}
	snap, err := briefcase.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: %w", checkpointPath, err)
	}
	return n.VM.Launch(principal, name, program, snap)
}

// Close shuts the node down: VMs first, then the firewall.
func (n *Node) Close() error {
	if n.CVM != nil {
		_ = n.CVM.Close()
	}
	if n.BinVM != nil {
		_ = n.BinVM.Close()
	}
	if n.VM != nil {
		_ = n.VM.Close()
	}
	return n.FW.Close()
}

// System is a simulated TAX deployment.
type System struct {
	// Net is the simulated network joining the nodes.
	Net *simnet.Network
	// Trust is the deployment-wide trust store (every node consults it).
	Trust *identity.TrustStore
	// SystemPrincipal signs system-launched agents and VM transfers.
	SystemPrincipal *identity.Principal

	mu    sync.Mutex
	nodes map[string]*Node
	tel   *telemetry.Telemetry
	twr   *tower.Collector

	// dirRing/dirCfg hold the directory plane configuration when
	// EnableDirectory was called (before the member nodes are added).
	dirRing *directory.Ring
	dirCfg  DirectoryConfig
}

// NewSystem creates an empty deployment whose host pairs default to the
// given link profile. A "system" principal is generated and installed in
// the trust store at identity.System.
func NewSystem(profile simnet.Profile) (*System, error) {
	sys, err := identity.NewPrincipal("system")
	if err != nil {
		return nil, fmt.Errorf("core: system principal: %w", err)
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(sys, identity.System)
	return &System{
		Net:             simnet.New(profile),
		Trust:           trust,
		SystemPrincipal: sys,
		nodes:           make(map[string]*Node),
	}, nil
}

// EnableTelemetry switches the deployment to full observability: one
// shared instance (spans and events on) that every node added afterwards
// reports into, also attached to the network so transfers feed the
// registry. Spans record which host they ran on, so one instance serves
// the whole simulation and a 3-hop itinerary reads back as a single tree.
// Call before AddNode. Idempotent; returns the instance.
func (s *System) EnableTelemetry() *telemetry.Telemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tel == nil {
		s.tel = telemetry.New(telemetry.Options{Host: "system", Spans: true, Events: true})
		s.Net.SetTelemetry(s.tel)
	}
	return s.tel
}

// Telemetry returns the deployment-wide telemetry instance (nil unless
// EnableTelemetry was called).
func (s *System) Telemetry() *telemetry.Telemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tel
}

// EnableTower turns on the observability tower: every node added afterwards
// gets its own host-labelled telemetry instance (spans and events on) whose
// records push into a system-wide tower.Collector, and the infrastructure —
// simulated network faults, cabinet durability work, host crashes and
// restarts — journals into the collector's flight recorder. The shared
// EnableTelemetry instance is still created for network link counters and is
// attached to the collector under its "system" host label. The collector
// answers the firewall's OpExplain management operation on every node.
// Call before AddNode. Idempotent; returns the collector.
func (s *System) EnableTower() *tower.Collector {
	s.EnableTelemetry()
	s.mu.Lock()
	if s.twr != nil {
		c := s.twr
		s.mu.Unlock()
		return c
	}
	c := tower.New(tower.Options{})
	s.twr = c
	tel := s.tel
	s.mu.Unlock()
	c.Attach(tel)
	// Fault-plan decisions that actually touched a transfer (drop,
	// duplicate, delay, corrupt) journal against the sending host, stamped
	// with the trace context the firewall threaded through SendStamped.
	s.Net.SetFaultObserver(func(p simnet.FaultPoint) {
		detail := "to=" + p.To
		if p.Detail != "" {
			detail += " " + p.Detail
		}
		c.Record(tower.Entry{
			Time:   p.Time,
			Host:   p.From,
			Kind:   tower.KindFault,
			Name:   p.Kind,
			Detail: detail,
			Trace:  p.Trace,
			Span:   p.Span,
		})
	})
	return c
}

// Tower returns the system-wide tower collector (nil unless EnableTower
// was called). A nil collector is safe to call.
func (s *System) Tower() *tower.Collector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.twr
}

// AddNode boots a host: simulated machine, firewall, VMs and the
// standard service agents.
func (s *System) AddNode(name string, opts NodeOptions) (*Node, error) {
	if opts.Arch == "" {
		opts.Arch = vm.DefaultArch
	}
	host, err := s.Net.AddHost(name)
	if err != nil {
		return nil, err
	}
	var channelSigner *identity.Principal
	if opts.SecureChannels {
		channelSigner, err = s.NewPrincipal("fw-"+name, identity.Trusted)
		if err != nil {
			return nil, err
		}
	}
	twr := s.Tower()
	nodeTel := opts.Telemetry
	if nodeTel == nil {
		if twr != nil {
			// Tower mode: each host reports into its own instance so span
			// and event feeds carry the host label and a crash wipes only
			// the crashed host's rings.
			nodeTel = telemetry.New(telemetry.Options{Host: name, Spans: true, Events: true})
			twr.Attach(nodeTel)
		} else {
			nodeTel = s.Telemetry()
		}
	}
	disk := cabinet.NewDisk(cabinet.DiskConfig{
		Clock:       host.Clock(),
		SyncLatency: opts.FsyncCost,
	})
	var cabObserver func(op string, at time.Duration, seq uint64)
	if twr != nil {
		cabObserver = func(op string, at time.Duration, seq uint64) {
			twr.Record(tower.Entry{
				Time:   at,
				Host:   name,
				Kind:   tower.KindCabinet,
				Name:   op,
				Detail: fmt.Sprintf("seq=%d", seq),
			})
		}
	}
	store := cabinet.NewStore(cabinet.Options{
		Clock:         host.Clock(),
		Disk:          disk,
		FsyncCost:     opts.FsyncCost,
		SnapshotEvery: opts.SnapshotEvery,
		GroupCommit:   opts.GroupCommit,
		GroupMaxTxns:  opts.GroupMaxTxns,
		Telemetry:     nodeTel.Registry(),
		Host:          name,
		Observer:      cabObserver,
	})
	var explain func(traceID string) []string
	if twr != nil {
		explain = func(traceID string) []string {
			if traceID == "latest" {
				traceID = twr.LatestTrace()
			}
			return twr.Trace(traceID).ExplainLines()
		}
	}
	var eng *policy.Engine
	if opts.Policy != "" || opts.Quota != nil {
		var rs *policy.Ruleset
		if opts.Policy != "" {
			rs, err = policy.Parse(opts.Policy)
			if err != nil {
				return nil, fmt.Errorf("core: node %s policy: %w", name, err)
			}
		} else {
			// Quotas without rules: meter the legacy mediation decisions.
			rs = policy.AllowAll()
		}
		var dq policy.Quota
		if opts.Quota != nil {
			dq = *opts.Quota
		}
		eng = policy.New(host.Clock(), rs, dq)
	}
	fw, err := firewall.New(firewall.Config{
		HostName:        name,
		Node:            host,
		Trust:           s.Trust,
		SystemPrincipal: s.SystemPrincipal.Name(),
		QueueTimeout:    opts.QueueTimeout,
		RequireAuth:     opts.RequireAuth,
		// Crossing the firewall between VM processes costs one 1999 IPC
		// round (~150 µs); figure 3's seven-step pipeline makes this
		// visible, everything else treats it as noise.
		LocalHopCost:  150 * time.Microsecond,
		ChannelSigner: channelSigner,
		ChannelAuth:   opts.SecureChannels,
		ForwardRetry:  opts.ForwardRetry,
		DedupWindow:   opts.DedupWindow,
		Batch:         opts.Batch,
		Relay:         opts.Relay,
		Resolve:       opts.Resolve,
		Telemetry:     nodeTel,
		Durable:       store,
		Explain:       explain,
		Policy:        eng,
	})
	if err != nil {
		return nil, err
	}
	node := &Node{
		Name:         name,
		FW:           fw,
		Programs:     &vm.Registry{},
		Binaries:     &vm.BinaryStore{},
		Wrappers:     &wrapper.Registry{},
		WrapperSpecs: wrapper.NewSpecRegistry(),
		Host:         host,
		Arch:         opts.Arch,
		Disk:         disk,
		Cabinet:      store,
		sys:          s,
		opts:         opts,
		tel:          nodeTel,
		ownTel:       twr != nil && opts.Telemetry == nil,
	}
	node.VM, err = vm.New(vm.Config{
		FW:          fw,
		Programs:    node.Programs,
		Signer:      s.SystemPrincipal,
		Bypass:      opts.Bypass,
		Trace:       opts.Trace,
		PreLaunch:   node.WrapperSpecs.PreLaunchSpec(node.Wrappers),
		OnAgentDone: opts.OnAgentDone,
	})
	if err != nil {
		return nil, errors.Join(err, fw.Close())
	}
	node.BinVM, err = vm.NewBin(vm.BinConfig{
		FW:          fw,
		Arch:        opts.Arch,
		Store:       node.Binaries,
		Trust:       s.Trust,
		Signer:      s.SystemPrincipal,
		Trace:       opts.Trace,
		PreLaunch:   node.WrapperSpecs.PreLaunchSpec(node.Wrappers),
		OnAgentDone: opts.OnAgentDone,
	})
	if err != nil {
		return nil, errors.Join(err, node.Close())
	}
	if !opts.NoCVM {
		node.CVM, err = vm.NewC(vm.CConfig{
			FW:     fw,
			Arch:   opts.Arch,
			Signer: s.SystemPrincipal,
			Trace:  opts.Trace,
		})
		if err != nil {
			return nil, errors.Join(err, node.Close())
		}
	}
	if !opts.NoServices {
		if err := s.launchServices(node, opts); err != nil {
			return nil, errors.Join(err, node.Close())
		}
	}
	s.Net.OnCrash(name, node.crash)
	s.Net.OnRestart(name, node.restart)
	s.mu.Lock()
	s.nodes[name] = node
	s.mu.Unlock()
	return node, nil
}

// crash is the simnet OnCrash hook: the machine loses everything that
// was not fsynced. The disk drops its page cache and the firewall wipes
// every registration, parked message and dedup entry — which also makes
// the VM control loops and every in-flight agent context on this host
// observe a kill and exit.
func (n *Node) crash() {
	// Journal the crash first: the collector already holds everything the
	// host pushed before this instant, and the entry marks where the
	// surviving spans were cut off.
	n.sys.Tower().Record(tower.Entry{
		Time:   n.Host.Clock().Now(),
		Host:   n.Name,
		Kind:   tower.KindCrash,
		Name:   "crash",
		Detail: "volatile state lost",
	})
	if n.ownTel {
		n.tel.WipeVolatile()
	}
	n.Disk.Crash()
	n.FW.CrashWipe()
}

// restart is the simnet OnRestart hook: the machine boots from durable
// state. Order matters — the cabinet replays snapshot+WAL first, the VMs
// reattach and the standard services relaunch (with fresh, empty
// volatile state), and only then does the firewall re-route recovered
// parked messages, so parks addressed to freshly re-registered services
// deliver immediately instead of waiting out their timeout.
func (n *Node) restart() {
	n.sys.Tower().Record(tower.Entry{
		Time:   n.Host.Clock().Now(),
		Host:   n.Name,
		Kind:   tower.KindRestart,
		Name:   "restart",
		Detail: "rebooting from durable state",
	})
	if _, err := n.Cabinet.Reopen(); err != nil {
		// Recovery is total by construction (corrupt tails are truncated,
		// corrupt snapshots fall back to WAL); an error here means the
		// disk itself refused, which only happens mid-crash.
		return
	}
	_ = n.VM.Reattach()
	_ = n.BinVM.Reattach()
	if n.CVM != nil {
		_ = n.CVM.Reattach()
	}
	if !n.opts.NoServices {
		_ = n.sys.launchServices(n, n.opts)
	}
	n.FW.RecoverDurable()
}

// launchServices starts the standard service agents on vm_go.
func (s *System) launchServices(node *Node, opts NodeOptions) error {
	sysName := s.SystemPrincipal.Name()
	svcs := map[string]vm.Handler{
		"ag_fs":      services.NewAgFS(),
		"ag_cabinet": services.NewAgCabinet(node.Cabinet),
		"ag_cron":    services.NewAgCron(),
		"ag_dir":     services.NewAgDir(),
		"ag_exec": services.NewAgExec(services.ExecConfig{
			Arch:  node.Arch,
			Store: node.Binaries,
			Trace: opts.Trace,
		}),
	}
	if !opts.NoCVM {
		svcs["ag_cc"] = services.NewAgCC("ag_exec", 0, opts.Trace)
	}
	if srv := s.directoryServer(node); srv != nil {
		svcs[directory.ServiceName] = srv.Handler()
	}
	names := make([]string, 0, len(svcs))
	for n := range svcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, svcName := range names {
		node.Programs.Register(svcName, svcs[svcName])
		if _, err := node.VM.Launch(sysName, svcName, svcName, nil); err != nil {
			return fmt.Errorf("core: launch %s: %w", svcName, err)
		}
	}
	return nil
}

// Node returns the named node.
func (s *System) Node(name string) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[name]
	if !ok {
		return nil, fmt.Errorf("core: no node %q", name)
	}
	return n, nil
}

// Nodes returns every node, sorted by name.
func (s *System) Nodes() []*Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DeployProgram registers a program handler on every node (and nodes are
// free to register per-node closures directly on Node.Programs).
func (s *System) DeployProgram(name string, h vm.Handler) {
	for _, n := range s.Nodes() {
		n.Programs.Register(name, h)
	}
}

// DeployBinary installs a binary on every node: all hosts of one
// architecture hold the bit-identical synthetic image (vm.SyntheticImage
// is deterministic, so it is computed once per architecture and shared
// read-only) but each binds its own handler closure, which is how
// pre-deployed code captures host-local resources.
func (s *System) DeployBinary(name, version string, size int, mkHandler func(n *Node) vm.Handler) {
	images := make(map[string][]byte)
	for _, n := range s.Nodes() {
		img, ok := images[n.Arch]
		if !ok {
			img = vm.SyntheticImage(name, n.Arch, version, size)
			images[n.Arch] = img
		}
		n.Binaries.Deploy(vm.Binary{
			Name:    name,
			Arch:    n.Arch,
			Version: version,
			Payload: img,
			Handler: mkHandler(n),
		})
	}
}

// DeployWrapper registers a wrapper factory on every node, so travelling
// stacks naming it can be rebuilt wherever the agent lands.
func (s *System) DeployWrapper(name string, f wrapper.Factory) {
	for _, n := range s.Nodes() {
		n.Wrappers.Register(name, f)
	}
}

// NewPrincipal generates a principal and installs it in the deployment
// trust store at the given level.
func (s *System) NewPrincipal(name string, level identity.Level) (*identity.Principal, error) {
	p, err := identity.NewPrincipal(name)
	if err != nil {
		return nil, err
	}
	s.Trust.AddPrincipal(p, level)
	return p, nil
}

// Close shuts down every node and the network.
func (s *System) Close() error {
	s.mu.Lock()
	nodes := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.nodes = map[string]*Node{}
	s.mu.Unlock()
	var errs []error
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.Net.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
