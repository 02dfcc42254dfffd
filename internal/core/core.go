// Package core wires the TAX kernel into deployable hosts.
//
// A Node is one machine of figure 1: a firewall fronting a set of virtual
// machines (vm_go, vm_bin, vm_c) and the standard service agents (ag_cc,
// ag_exec, ag_fs, ag_cron). A System is a simulated distributed
// deployment: several nodes joined by a simnet.Network (AddNode). The
// same node boots on a real TCP socket (AddTCPNode), which is what
// cmd/taxd runs. The public root package tax re-exports this API.
package core

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"tax/internal/cabinet"
	"tax/internal/directory"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/services"
	"tax/internal/simnet"
	"tax/internal/telemetry"
	"tax/internal/tower"
	"tax/internal/vclock"
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
	// NoServices skips launching the standard service agents.
	NoServices bool
	// NoCVM skips the C virtual machine and its compile services.
	NoCVM bool
	// SecureChannels signs every inter-firewall frame with a per-host
	// firewall principal and rejects unsigned or untrusted inbound
	// frames (§3.2's "authenticated and trusted sender").
	SecureChannels bool
	// Telemetry overrides the telemetry instance this node's firewall
	// reports into. Nil gives the node its own instance in tower mode
	// (EnableTower), else the firewall's private counters-only instance.
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
	// Name names the node in its system: the simulated host name (also
	// the host in its agent URIs), or a live node's "host:port".
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
	// Wrappers is the host's wrapper registry: its deployed names plus
	// the built-in spec layer kinds. A travelling agent's stack is
	// rebuilt from it, one layer per element of its _WRAP folder.
	Wrappers *wrapper.Registry
	// Dir is the node's directory plane member when the deployment
	// enabled the plane and this node is in its ring, else nil.
	Dir *directory.Server
	// Host is the simulated machine carrying the node; nil on a live
	// node.
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
// per-host instance in tower mode, else the configured one (nil when
// NodeOptions.Telemetry was not set).
func (n *Node) Telemetry() *telemetry.Telemetry { return n.tel }

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
	// SystemPrincipal signs the cores of system agents when they first
	// leave their host, and the cores vm_c compiles.
	SystemPrincipal *identity.Principal

	mu          sync.Mutex
	nodes       map[string]*Node
	twr         *tower.Collector
	netObserved bool // observeNetwork attached the network to twr

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

// EnableTower turns on the observability tower: every node added afterwards
// gets its own host-labelled telemetry instance (spans and events on) whose
// records push into a system-wide tower.Collector, and the infrastructure —
// simulated network faults, cabinet durability work, host crashes and
// restarts — journals into the collector's flight recorder. The simulated
// network's link counters and transfer spans report into one more instance,
// attached under the "system" host label when the first simulated host is
// added; a system of live TCP nodes has none. The collector answers the
// firewall's OpExplain management operation on every node. Call before
// AddNode. Idempotent; returns the collector.
func (s *System) EnableTower() *tower.Collector {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.twr == nil {
		s.twr = tower.New(tower.Options{})
	}
	return s.twr
}

// observeNetwork attaches the simulated network to the tower, once: its
// "system" instance, and an observer journaling every fault-plan decision
// that actually touched a transfer (drop, duplicate, delay, corrupt)
// against the sending host, stamped with the trace context the firewall
// threaded through SendStamped. Without a tower it does nothing.
func (s *System) observeNetwork() {
	s.mu.Lock()
	c := s.twr
	if c == nil || s.netObserved {
		s.mu.Unlock()
		return
	}
	s.netObserved = true
	s.mu.Unlock()
	tel := telemetry.New(telemetry.Options{Host: "system", Spans: true, Events: true})
	s.Net.SetTelemetry(tel)
	c.Attach(tel)
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
}

// Tower returns the system-wide tower collector (nil unless EnableTower
// was called). A nil collector is safe to call.
func (s *System) Tower() *tower.Collector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.twr
}

// AddNode boots a simulated host: a machine on the system's network
// running on its virtual clock, with its firewall, VMs and standard
// service agents, that crashes and restarts with the network.
func (s *System) AddNode(name string, opts NodeOptions) (*Node, error) {
	s.observeNetwork()
	host, err := s.Net.AddHost(name)
	if err != nil {
		return nil, err
	}
	// Crossing the firewall between VM processes costs one 1999 IPC
	// round (~150 µs); figure 3's seven-step pipeline makes this
	// visible, everything else treats it as noise.
	node, err := s.boot(name, host, host.Clock(), name, 0, 150*time.Microsecond, opts)
	if err != nil {
		return nil, err
	}
	s.Net.OnCrash(name, node.crash)
	s.Net.OnRestart(name, node.restart)
	return node, nil
}

// AddTCPNode boots a live host on a listening TCP endpoint: the node
// AddNode builds, on the real clock. It is named by its address
// ("host:port"), whose host and port are its agent URIs' authority;
// Resolve defaults to joining them back into a dial address. A live
// node charges no local hop cost (the real clock would sleep it) and
// has no crash hooks: its process is the machine.
func (s *System) AddTCPNode(tcp *simnet.TCPNode, opts NodeOptions) (*Node, error) {
	host, portStr, err := net.SplitHostPort(tcp.Addr())
	if err != nil {
		return nil, err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, err
	}
	if opts.Resolve == nil {
		opts.Resolve = func(h string, p int) (string, error) {
			return net.JoinHostPort(h, strconv.Itoa(p)), nil
		}
	}
	return s.boot(tcp.Addr(), tcp, vclock.NewReal(), host, port, 0, opts)
}

// boot assembles a node on transport tr — telemetry, cabinet, policy,
// firewall, VMs, service agents and directory membership — and
// registers it under name. host and port are the node's authority in
// agent URIs; hop is the firewall's local hop cost.
func (s *System) boot(name string, tr simnet.Node, clock vclock.Clock, host string, port int, hop time.Duration, opts NodeOptions) (*Node, error) {
	if opts.Arch == "" {
		opts.Arch = vm.DefaultArch
	}
	var channelSigner *identity.Principal
	var err error
	if opts.SecureChannels {
		channelSigner, err = s.NewPrincipal("fw-"+name, identity.Trusted)
		if err != nil {
			return nil, err
		}
	}
	twr := s.Tower()
	nodeTel := opts.Telemetry
	if nodeTel == nil && twr != nil {
		// Tower mode: each host reports into its own instance so span
		// and event feeds carry the host label and a crash wipes only
		// the crashed host's rings.
		nodeTel = telemetry.New(telemetry.Options{Host: name, Spans: true, Events: true})
		twr.Attach(nodeTel)
	}
	disk := cabinet.NewDisk(cabinet.DiskConfig{
		Clock:       clock,
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
		Clock:         clock,
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
		eng = policy.New(clock, rs, dq)
	}
	fw, err := firewall.New(firewall.Config{
		HostName:        host,
		Port:            port,
		Node:            tr,
		Clock:           clock,
		Trust:           s.Trust,
		SystemPrincipal: s.SystemPrincipal.Name(),
		QueueTimeout:    opts.QueueTimeout,
		RequireAuth:     opts.RequireAuth,
		LocalHopCost:    hop,
		ChannelSigner:   channelSigner,
		ChannelAuth:     opts.SecureChannels,
		ForwardRetry:    opts.ForwardRetry,
		DedupWindow:     opts.DedupWindow,
		Batch:           opts.Batch,
		Relay:           opts.Relay,
		Resolve:         opts.Resolve,
		Telemetry:       nodeTel,
		Durable:         store,
		Explain:         explain,
		Policy:          eng,
	})
	if err != nil {
		return nil, err
	}
	simHost, _ := tr.(*simnet.Host)
	node := &Node{
		Name:     name,
		FW:       fw,
		Programs: &vm.Registry{},
		Binaries: &vm.BinaryStore{},
		Wrappers: wrapper.NewRegistry(),
		Host:     simHost,
		Arch:     opts.Arch,
		Disk:     disk,
		Cabinet:  store,
		sys:      s,
		opts:     opts,
		tel:      nodeTel,
		ownTel:   twr != nil && opts.Telemetry == nil,
	}
	node.VM, err = vm.New(vm.Config{
		FW:        fw,
		Programs:  node.Programs,
		Signer:    s.SystemPrincipal,
		Bypass:    opts.Bypass,
		PreLaunch: node.Wrappers.PreLaunch(),
	})
	if err != nil {
		return nil, errors.Join(err, fw.Close())
	}
	node.BinVM, err = vm.NewBin(vm.BinConfig{
		FW:        fw,
		Arch:      opts.Arch,
		Store:     node.Binaries,
		Trust:     s.Trust,
		Signer:    s.SystemPrincipal,
		PreLaunch: node.Wrappers.PreLaunch(),
	})
	if err != nil {
		return nil, errors.Join(err, node.Close())
	}
	if !opts.NoCVM {
		node.CVM, err = vm.NewC(vm.CConfig{
			FW:     fw,
			Arch:   opts.Arch,
			Signer: s.SystemPrincipal,
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
		}),
	}
	if !opts.NoCVM {
		svcs["ag_cc"] = services.NewAgCC()
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
// architecture hold the one shared, read-only image vm.SyntheticImage
// lends, but each binds its own handler closure, which is how
// pre-deployed code captures host-local resources.
func (s *System) DeployBinary(name, version string, size int, mkHandler func(n *Node) vm.Handler) {
	for _, n := range s.Nodes() {
		n.Binaries.Deploy(vm.Binary{
			Name:    name,
			Arch:    n.Arch,
			Version: version,
			Payload: vm.SyntheticImage(name, n.Arch, version, size),
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
