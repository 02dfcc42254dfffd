// Package firewall implements the TAX firewall of §3.2: the per-host
// reference monitor and communication broker.
//
// The firewall is the central object on each machine. It knows which
// agents run locally on which virtual machines, mediates all local
// communication between agents and all communication to remote firewalls,
// enforces access rights as it does so, and performs the initial
// authentication of arriving agents (signed agent core or trusted
// sender). Messages to receivers that are not ready — or have not yet
// arrived at the site — are queued with a timeout. Agents with sufficient
// privileges manage the site (list, run time, kill, stop, resume) by
// addressing messages directly to the firewall itself.
package firewall

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/simnet"
	"tax/internal/telemetry"
	"tax/internal/uri"
	"tax/internal/vclock"
)

var (
	// ErrNoTarget is returned when a briefcase has no _TARGET folder.
	ErrNoTarget = errors.New("firewall: briefcase has no target")
	// ErrClosed is returned after the firewall has shut down.
	ErrClosed = errors.New("firewall: closed")
	// ErrDenied is returned when policy forbids an operation.
	ErrDenied = errors.New("firewall: permission denied")
	// ErrNoAgent is returned when a management operation names an agent
	// that is not registered.
	ErrNoAgent = errors.New("firewall: no such agent")
	// ErrSenderGone is returned for a Send on behalf of a registration
	// the firewall no longer knows — typically a goroutine outliving its
	// host's crash. The machine's process table died with the machine,
	// and so did its processes' right to speak.
	ErrSenderGone = errors.New("firewall: sender not registered")
)

// FirewallName is the registration name under which the firewall itself
// receives management briefcases ("addressing messages directly to the
// firewall").
const FirewallName = "firewall"

// DefaultQueueTimeout is how long an undeliverable message waits for its
// receiver to register before it is dropped.
const DefaultQueueTimeout = 10 * time.Second

// Config parameterizes a firewall.
type Config struct {
	// HostName is this host's name in agent URIs.
	HostName string
	// Port is this firewall's port in agent URIs (0 means uri.DefaultPort).
	Port int
	// Node is the transport endpoint (simulated host or TCP node).
	Node simnet.Node
	// Clock is the host clock; defaults to the Node's clock for simnet
	// hosts, else a fresh virtual clock.
	Clock vclock.Clock
	// Trust is the host trust store. Required.
	Trust *identity.TrustStore
	// SystemPrincipal is the name of the local system principal. Agents
	// registered by the system (VMs, service agents) carry it.
	SystemPrincipal string
	// QueueTimeout bounds how long undeliverable messages wait; zero
	// means DefaultQueueTimeout.
	QueueTimeout time.Duration
	// RequireAuth, when set, makes the firewall reject inbound remote
	// agent transfers whose core is not signed by a known principal.
	RequireAuth bool
	// LocalHopCost is the virtual time charged per firewall-mediated
	// local delivery: the IPC cost of crossing the firewall between two
	// VM processes on one machine. Zero charges nothing.
	LocalHopCost time.Duration
	// ChannelSigner, when set, signs every outbound frame with this
	// host's principal, implementing §3.2's other authentication leg:
	// "the presence of an authenticated and trusted sender". Receivers
	// with ChannelAuth set verify the frame signature against the trust
	// store before routing.
	ChannelSigner *identity.Principal
	// ChannelAuth, when set, rejects inbound frames that are not signed
	// by a trusted (or better) principal.
	ChannelAuth bool
	// ForwardRetry is the host-default retry policy for remote forwards,
	// used when a briefcase carries no _RETRY folder of its own. The
	// zero value sends exactly once, the pre-retry behavior.
	ForwardRetry RetryPolicy
	// DedupWindow, when positive, remembers the hashes of the last N
	// inbound frames and silently drops exact duplicates. Networks that
	// duplicate messages (fault injection, at-least-once transports)
	// need it so a redelivered agent transfer does not activate twice;
	// it is off by default because legitimate traffic may repeat
	// byte-identically.
	DedupWindow int
	// Durable, when set, is the host's file cabinet: parked messages are
	// journaled through it as cabinet transactions (and removed when
	// delivered or expired), and dedup observations are appended
	// unsynced. After a crash, CrashWipe discards the in-memory tables
	// and RecoverDurable replays the cabinet back into them.
	Durable *cabinet.Store
	// Batch, when non-nil, enables batched mediation: remote forwards
	// are coalesced per destination link into container frames (see
	// batch.go). Every batched frame is still individually mediated and
	// policy-checked on both sides; only the transport message count
	// changes. Off (nil) by default because enqueued frames report
	// flush failures through the audit log instead of the Send call
	// (agent transfers still flush inline and keep synchronous errors).
	Batch *BatchConfig
	// Relay, when set, forwards inbound frames whose target is another
	// host toward their next hop instead of dropping them. The next hop
	// comes from Resolve (a routed topology maps a distant host to the
	// neighbor that is one step closer); the frame's wire bytes are
	// forwarded verbatim after header-only re-mediation (relay.go), so a
	// multi-hop itinerary encodes once at the origin and decodes once at
	// the final receiver. Off by default: a non-relay firewall keeps the
	// original drop-third-party-traffic behavior.
	Relay bool
	// Resolve maps an agent-URI host and port to a transport address.
	// Nil means the host name is the transport address (simnet). Relay
	// hosts use it as their next-hop table.
	Resolve func(host string, port int) (string, error)
	// Telemetry receives metrics, trace spans and audit events. Nil makes
	// the firewall create a private counters-only instance (the fw.*
	// registry counters always work); pass a telemetry.New instance with
	// spans/events enabled for full observability.
	Telemetry *telemetry.Telemetry
	// Explain, when set, serves the OpExplain management operation: given
	// a trace id ("latest" for the most recent), it returns the rendered
	// system-wide timeline, one line per row. The core layer wires it to
	// the tower collector; the firewall itself has only a per-host view
	// and cannot answer.
	Explain func(traceID string) []string
	// Policy, when set, is the declarative mediation layer: every
	// non-system mediation is evaluated against its active ruleset
	// (allow/deny/park, first match wins, default deny) and charged
	// against the sending principal's quota buckets. The system
	// principal is exempt — it is the trusted computing base the engine
	// itself depends on (service replies, error envelopes, management
	// replies). Nil preserves the legacy trust-check-only mediation
	// exactly. Hot reload goes through ReloadPolicy (or the OpPolicyLoad
	// management operation); the engine swaps rulesets atomically, so no
	// mediation ever sees a partially-applied ruleset.
	Policy *policy.Engine
}

// AgentInfo is one row of the firewall's agent listing.
type AgentInfo struct {
	URI     uri.URI
	VM      string
	State   State
	Runtime time.Duration // host-clock time since registration
}

type pendingMsg struct {
	target          uri.URI
	senderPrincipal string
	bc              *briefcase.Briefcase
	timer           *time.Timer
	key             string // cabinet journal key ("" when not journaled)
	policyHeld      bool   // parked by a policy park verdict: released
	// only by a reload (or expiry), never by a matching registration
}

// fwCounters are the firewall's pre-resolved registry counters: resolved
// once at New so the hot path pays one atomic add per update.
type fwCounters struct {
	delivered       *telemetry.Counter
	forwarded       *telemetry.Counter
	queued          *telemetry.Counter
	expired         *telemetry.Counter
	authFailures    *telemetry.Counter
	mgmtOps         *telemetry.Counter
	errors          *telemetry.Counter
	retries         *telemetry.Counter
	dupDropped      *telemetry.Counter
	batchFlushes    *telemetry.Counter
	batchFrames     *telemetry.Counter
	batchRecv       *telemetry.Counter
	relayed         *telemetry.Counter
	relayContainers *telemetry.Counter
	policyAllow     *telemetry.Counter
	policyDeny      *telemetry.Counter
	policyPark      *telemetry.Counter
	policyQuota     *telemetry.Counter
	// fw.core_verify{result}: transfer authentications by how the
	// signature check was answered — the trust store's verified-manifest
	// cache (hit), ed25519 (miss), or a refusal (fail).
	coreVerifyHit  *telemetry.Counter
	coreVerifyMiss *telemetry.Counter
	coreVerifyFail *telemetry.Counter
	// fw.core_hashed: transfer authentications that hashed the core,
	// neither the core stamp nor the digest memo knowing its digest.
	// Registered on RequireAuth hosts, the only ones that hash arrivals.
	coreHashed *telemetry.Counter
}

// Firewall is the per-host broker. Create with New, shut down with Close.
type Firewall struct {
	cfg   Config
	clock vclock.Clock

	tel *telemetry.Telemetry
	ctr fwCounters
	// tally maps a terminal verdict to the one counter it bumps; emit is
	// its only reader.
	tally [vExpired + 1]*telemetry.Counter
	// histSend/histInbound time the mediation hot paths in wall-clock
	// terms; non-nil only with detailed telemetry, so the disabled path
	// never reads the wall clock.
	histSend    *telemetry.Histogram
	histInbound *telemetry.Histogram

	// gaugePending mirrors the park table's total depth into the
	// registry so parked messages are observable without polling
	// Pending(); per-stripe depths are the fw.pending_shard gauges.
	gaugePending *telemetry.Gauge

	// park is the lock-striped store of messages awaiting a receiver;
	// it has its own per-stripe locks so mediation for unrelated
	// receivers does not serialize on mu.
	park *parkTable

	// dedup suppresses duplicate inbound frames; it carries its own
	// lock (nil unless cfg.DedupWindow > 0).
	dedup *dedupWindow

	// memo remembers what the cores verified here digest to, so an
	// arriving core this host has seen is compared, not hashed
	// (envelope.go). It carries its own lock; nil unless
	// cfg.RequireAuth, as only then are arrivals verified.
	memo *coreMemo

	// batch holds the per-link outbound queues of batched mediation
	// (nil unless cfg.Batch is set).
	batch *batcher

	// dir is the directory plane's management dump hook (SetDir). Bound
	// after New because the plane server needs the firewall first — the
	// same late-binding shape as Config.Explain.
	dir atomic.Pointer[func(verb string) ([]string, error)]

	// mu guards the registration map. It is a RWMutex so concurrent
	// mediations (lookups) proceed in parallel; only registration
	// changes take the write side.
	mu           sync.RWMutex
	regs         map[string][]*Registration // keyed by agent name
	nextInstance uint64
	closed       bool

	// parkKeySeq allocates cabinet journal keys for parked messages
	// (durable.go); it only advances, so keys never collide across a
	// crash/recover cycle.
	parkKeySeq atomic.Uint64
}

// New creates a firewall bound to cfg.Node and installs its inbound
// handler.
func New(cfg Config) (*Firewall, error) {
	if cfg.Node == nil {
		return nil, errors.New("firewall: config needs a Node")
	}
	if cfg.Trust == nil {
		return nil, errors.New("firewall: config needs a TrustStore")
	}
	cfg.HostName = cmp.Or(cfg.HostName, cfg.Node.Addr())
	cfg.QueueTimeout = cmp.Or(cfg.QueueTimeout, DefaultQueueTimeout)
	if cfg.Resolve == nil {
		cfg.Resolve = func(host string, _ int) (string, error) { return host, nil }
	}
	clock := cfg.Clock
	if clock == nil {
		if h, ok := cfg.Node.(*simnet.Host); ok {
			clock = h.Clock()
		} else {
			clock = vclock.NewVirtual()
		}
	}
	tel := cfg.Telemetry
	if tel == nil {
		// Counters-only instance so the fw.* registry counters and the
		// metrics management op keep working; spans and events stay
		// disabled (near-zero cost).
		tel = telemetry.New(telemetry.Options{Host: cfg.HostName})
	}
	reg := tel.Registry()
	fw := &Firewall{
		cfg:   cfg,
		clock: clock,
		tel:   tel,
		ctr: fwCounters{
			delivered:       reg.Counter("fw.delivered", "host", cfg.HostName),
			forwarded:       reg.Counter("fw.forwarded", "host", cfg.HostName),
			queued:          reg.Counter("fw.queued", "host", cfg.HostName),
			expired:         reg.Counter("fw.expired", "host", cfg.HostName),
			authFailures:    reg.Counter("fw.auth_failures", "host", cfg.HostName),
			mgmtOps:         reg.Counter("fw.mgmt_ops", "host", cfg.HostName),
			errors:          reg.Counter("fw.errors", "host", cfg.HostName),
			retries:         reg.Counter("fw.retries", "host", cfg.HostName),
			dupDropped:      reg.Counter("fw.dup_dropped", "host", cfg.HostName),
			batchFlushes:    reg.Counter("fw.batch_flushes", "host", cfg.HostName),
			batchFrames:     reg.Counter("fw.batch_frames", "host", cfg.HostName),
			batchRecv:       reg.Counter("fw.batch_recv", "host", cfg.HostName),
			relayed:         reg.Counter("fw.relayed", "host", cfg.HostName),
			relayContainers: reg.Counter("fw.relay_containers", "host", cfg.HostName),
			policyAllow:     reg.Counter("fw.policy_allow", "host", cfg.HostName),
			policyDeny:      reg.Counter("fw.policy_deny", "host", cfg.HostName),
			policyPark:      reg.Counter("fw.policy_park", "host", cfg.HostName),
			policyQuota:     reg.Counter("fw.policy_quota", "host", cfg.HostName),
			coreVerifyHit:   reg.Counter("fw.core_verify", "host", cfg.HostName, "result", "hit"),
			coreVerifyMiss:  reg.Counter("fw.core_verify", "host", cfg.HostName, "result", "miss"),
			coreVerifyFail:  reg.Counter("fw.core_verify", "host", cfg.HostName, "result", "fail"),
		},
		park:         newParkTable(reg, cfg.HostName),
		regs:         make(map[string][]*Registration),
		nextInstance: 0x1000,
	}
	fw.gaugePending = fw.park.total
	c := &fw.ctr
	fw.tally = [...]*telemetry.Counter{
		vDelivered: c.delivered, vForwarded: c.forwarded, vRelayed: c.relayed, vParked: c.queued, vHeld: c.queued,
		vDenied: c.policyDeny, vQuota: c.policyQuota, vAuthFailed: c.authFailures, vFailed: c.errors,
		vDropped: c.errors, vExpired: c.expired,
	}
	if cfg.DedupWindow > 0 {
		fw.dedup = newDedupWindow(cfg.DedupWindow)
		if cfg.Durable != nil {
			fw.dedup.keys = dedupKeys(cfg.DedupWindow)
			fw.dedup.onInsert = fw.journalDedup
		}
	}
	if cfg.RequireAuth {
		fw.memo = new(coreMemo)
		fw.ctr.coreHashed = reg.Counter("fw.core_hashed", "host", cfg.HostName)
	}
	if cfg.Batch != nil {
		fw.batch = newBatcher(fw, *cfg.Batch)
	}
	if tel.Detailed() {
		fw.histSend = reg.Histogram("fw.send", "host", cfg.HostName)
		fw.histInbound = reg.Histogram("fw.inbound", "host", cfg.HostName)
	}
	cfg.Node.SetHandler(fw.handleInbound)
	return fw, nil
}

// Telemetry returns the firewall's telemetry instance: its observability
// API (the fw.* counters in its metrics registry, trace spans, audit
// event log).
func (fw *Firewall) Telemetry() *telemetry.Telemetry { return fw.tel }

// HostName returns the host name this firewall serves.
func (fw *Firewall) HostName() string { return fw.cfg.HostName }

// Clock returns the host clock.
func (fw *Firewall) Clock() vclock.Clock { return fw.clock }

// SystemPrincipal returns the local system principal's name.
func (fw *Firewall) SystemPrincipal() string { return fw.cfg.SystemPrincipal }

// Close shuts the firewall down: kills every registration and stops
// pending-message timers. The transport node is not closed (it may be
// shared); callers close it separately.
func (fw *Firewall) Close() error {
	fw.mu.Lock()
	if fw.closed {
		fw.mu.Unlock()
		return nil
	}
	fw.closed = true
	fw.mu.Unlock()
	if fw.batch != nil {
		// Push out queued frames before the registrations die; a flush
		// failure at shutdown is already audited by the batcher.
		_ = fw.batch.flushAll()
	}
	_, pend := fw.vacate()
	for _, p := range pend {
		fw.record(vNote, telemetry.EventDrop, p.senderPrincipal, p.target.String(), "firewall closed", nil)
	}
	return nil
}

// vacate empties the registration and park tables — shutting down and
// losing power both do — killing every agent so blocked receivers wake,
// and stopping every parked message's timer.
func (fw *Firewall) vacate() (regs []*Registration, pend []*pendingMsg) {
	fw.mu.Lock()
	for _, list := range fw.regs {
		regs = append(regs, list...)
	}
	fw.regs = make(map[string][]*Registration)
	fw.mu.Unlock()
	pend = fw.park.take(func(*pendingMsg) bool { return true })
	for _, p := range pend {
		p.timer.Stop()
	}
	for _, r := range regs {
		r.kill()
	}
	return regs, pend
}

// Register adds an agent running inside the named VM under the given
// principal and name, allocating a fresh instance number. Parked messages
// that match the new agent are delivered immediately.
func (fw *Firewall) Register(vmName, principal, name string) (*Registration, error) {
	if name == "" {
		return nil, errors.New("firewall: empty agent name")
	}
	fw.mu.Lock()
	if fw.closed {
		fw.mu.Unlock()
		return nil, ErrClosed
	}
	inst := fw.nextInstance
	fw.nextInstance++
	r := &Registration{
		fw:           fw,
		uri:          uri.URI{Principal: principal, Name: name, Instance: inst, HasInstance: true},
		vm:           vmName,
		mailbox:      make(chan *briefcase.Briefcase, mailboxSize),
		state:        StateRunning,
		killed:       make(chan struct{}),
		registeredAt: fw.clock.Now(),
	}
	fw.regs[name] = append(fw.regs[name], r)
	fw.mu.Unlock()

	// Flush parked messages after releasing the registration lock: the
	// park table arbitrates with its own stripe locks, so a message is
	// taken by exactly one of a concurrent flush and expiry.
	flush := fw.park.take(func(p *pendingMsg) bool {
		// Policy-held messages wait for a reload verdict, not a receiver:
		// a matching registration must not leak them past the park rule.
		return !p.policyHeld && fw.reaches(p.target, p.senderPrincipal, r)
	}, name, "")
	for _, p := range flush {
		p.timer.Stop()
		fw.unjournalPark(p)
		// The message was admitted, addressed and gated when it parked;
		// it joins the pipeline at act with that verdict standing.
		var m mediation
		m.origin, m.principal, m.bc, m.reg = originFlush, r.uri.Principal, p.bc, r
		_ = fw.mediate(&m, stageAct)
	}
	return r, nil
}

// Unregister removes an agent. It is idempotent and also kills the
// registration so blocked receivers wake up.
func (fw *Firewall) Unregister(r *Registration) {
	fw.mu.Lock()
	list := slices.DeleteFunc(fw.regs[r.uri.Name], func(c *Registration) bool { return c == r })
	if len(list) == 0 {
		delete(fw.regs, r.uri.Name)
	} else {
		fw.regs[r.uri.Name] = list
	}
	fw.mu.Unlock()
	r.kill()
}

// Lookup returns the registrations matching the query URI under the
// paper's matching rules, given the querying principal.
func (fw *Firewall) Lookup(q uri.URI, senderPrincipal string) []*Registration {
	fw.mu.RLock()
	defer fw.mu.RUnlock()
	return fw.lookupLocked(nil, q, senderPrincipal, false)
}

// lookupLocked appends the registrations q names to out and returns the
// extended slice. route hands it a one-slot buffer of its own, so the
// usual single match costs no allocation.
func (fw *Firewall) lookupLocked(out []*Registration, q uri.URI, senderPrincipal string, mgmt bool) []*Registration {
	names := []string{q.Name}
	if q.Name == "" {
		// Name-less query: scan deterministically by name.
		names = names[:0]
		for n := range fw.regs {
			names = append(names, n)
		}
		slices.Sort(names)
	}
	for _, n := range names {
		for _, r := range fw.regs[n] {
			if fw.reaches(q, senderPrincipal, r) || (mgmt && r.uri.Matches(q)) {
				out = append(out, r)
			}
		}
	}
	return out
}

// reaches is the paper's matching rule (§3.2): a query names r when the
// URIs match, and an empty-principal query only reaches the local
// system principal or the sender's own.
func (fw *Firewall) reaches(q uri.URI, senderPrincipal string, r *Registration) bool {
	return r.uri.Matches(q) && (q.Principal != "" ||
		r.uri.Principal == fw.cfg.SystemPrincipal || r.uri.Principal == senderPrincipal)
}

// isLocal reports whether a target URI addresses this host.
func (fw *Firewall) isLocal(u uri.URI) bool {
	self := uri.URI{Port: fw.cfg.Port}
	return u.Host == "" || (u.Host == fw.cfg.HostName && u.EffectivePort() == self.EffectivePort())
}

// Send routes a briefcase on behalf of the named sender. The _SENDER
// folder is overwritten with the authenticated sender URI, so receivers
// can trust it. The target is read from _TARGET.
func (fw *Firewall) Send(sender uri.URI, bc *briefcase.Briefcase) error {
	var m mediation
	return fw.send(&m, sender, bc)
}

// SendAt is Send reporting the virtual instant the briefcase left the
// monitor: into a local receiver's mailbox, or onto the wire when the
// transport finished sending it. That hand-off is stamped when spans or
// audit events are on; otherwise, and for a briefcase that did not
// leave (parked or refused), it is the clock when the mediation ended.
func (fw *Firewall) SendAt(sender uri.URI, bc *briefcase.Briefcase) (time.Duration, error) {
	var m mediation
	err := fw.send(&m, sender, bc)
	return m.now(fw.clock), err
}

func (fw *Firewall) send(m *mediation, sender uri.URI, bc *briefcase.Briefcase) error {
	// Assigned, not a literal: a literal this size is built in a
	// temporary and copied.
	m.origin, m.sender, m.principal, m.bc, m.hist = originSend, sender, sender.Principal, bc, fw.histSend
	return fw.mediate(m, stageAdmit)
}

// handleInbound is the transport handler. A batch container is
// transport coalescing, not a message: a relay host first tries to pass
// it on whole (relay.go), and otherwise every inner frame is mediated
// individually, exactly as if it had arrived alone. Receivers unpack
// regardless of their own Batch setting, so a batching sender
// interoperates with a non-batching receiver.
func (fw *Firewall) handleInbound(from string, payload []byte) {
	switch {
	case !isBatchContainer(payload):
		fw.inbound(from, payload)
	case !fw.cfg.Relay || !fw.relayContainer(from, payload):
		fw.unbatch(from, payload)
	}
}

// inbound mediates one frame off the wire.
func (fw *Firewall) inbound(from string, frame []byte) {
	var m mediation
	m.origin, m.from, m.wire, m.hist = originFrame, from, frame, fw.histInbound
	_ = fw.mediate(&m, stageAdmit)
}

// parkMsg queues a message for a receiver that has not arrived yet.
// Callers hold at least the read side of fw.mu (to order the park
// against Close and Register).
func (fw *Firewall) parkMsg(senderPrincipal string, target uri.URI, bc *briefcase.Briefcase, policyHeld bool) {
	p := &pendingMsg{target: target, senderPrincipal: senderPrincipal, bc: bc, policyHeld: policyHeld}
	// Journal before arming the timer: once the park is observable it is
	// already durable, so no window exists where a crash loses a parked
	// message the sender was told is pending.
	fw.journalPark(p, target)
	p.timer = time.AfterFunc(fw.cfg.QueueTimeout, func() { fw.expire(p) })
	fw.park.add(p)
}

// Pending returns the number of currently parked messages.
func (fw *Firewall) Pending() int {
	return fw.park.size()
}

// expire handles a parked message whose timeout lapsed: the expiry is
// audited, the sender is notified with a typed KindError envelope, and —
// when the reply path is itself unreachable — the envelope is parked
// here rather than silently lost, so it stays observable (Pending, the
// event log) and is retried once more when its own timeout fires.
func (fw *Firewall) expire(p *pendingMsg) {
	if len(fw.park.take(func(q *pendingMsg) bool { return q == p }, p.target.Name)) == 0 {
		// A registration flush, a reload or Close already took the message.
		return
	}
	fw.unjournalPark(p)
	fw.record(vExpired, "", p.senderPrincipal, p.target.String(), fmt.Sprintf("queue timeout after %v", fw.cfg.QueueTimeout), p.bc)
	if Kind(p.bc) == KindError {
		// An expired error envelope gets one last delivery attempt — its
		// reply path may have healed while it waited — and is then gone
		// for good; re-parking it would loop forever against a dead path.
		if !fw.isLocal(p.target) {
			_ = fw.Send(fw.selfURI(), p.bc)
		}
		return
	}
	sender, ok := replyTo(p.bc)
	if !ok {
		return
	}
	reason := fmt.Sprintf("message to %s expired after %v", p.target, fw.cfg.QueueTimeout)
	report := errorReport(fw.selfURI().String(), sender.String(), reason)
	SetErrorCode(report, ErrExpired)
	if id, okID := p.bc.GetString(FolderMsgID); okID {
		report.SetString(FolderReplyTo, id)
	}
	// The notification inherits the original's retry policy so it can
	// ride out a transiently partitioned reply path.
	if pol, has, polErr := RetryPolicyFrom(p.bc); has && polErr == nil {
		SetRetryPolicy(report, pol)
	}
	if sendErr := fw.Send(fw.selfURI(), report); sendErr != nil {
		fw.mu.RLock()
		if fw.closed {
			fw.mu.RUnlock()
			return
		}
		fw.parkMsg(fw.cfg.SystemPrincipal, sender, report, false)
		fw.mu.RUnlock()
		fw.record(vParked, "", fw.cfg.SystemPrincipal, sender.String(),
			"reply path unreachable; parked expiry notice: "+sendErr.Error(), nil)
	}
}

// selfURI is the firewall's own agent URI.
func (fw *Firewall) selfURI() uri.URI {
	return uri.URI{
		Host:      fw.cfg.HostName,
		Port:      fw.cfg.Port,
		Principal: fw.cfg.SystemPrincipal,
		Name:      FirewallName,
	}
}

// List returns information about every registered agent, sorted by URI.
func (fw *Firewall) List() []AgentInfo {
	fw.mu.RLock()
	defer fw.mu.RUnlock()
	now := fw.clock.Now()
	var out []AgentInfo
	for _, list := range fw.regs {
		for _, r := range list {
			out = append(out, AgentInfo{
				URI:     r.uri,
				VM:      r.vm,
				State:   r.State(),
				Runtime: now - r.registeredAt,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URI.String() < out[j].URI.String() })
	return out
}

// Management operation names carried in the _OP folder of a
// KindManagement briefcase; the _ARG folder carries the target agent URI
// where one is needed.
const (
	// OpList asks for the agent listing.
	OpList = "list"
	// OpRuntime asks for one agent's run time.
	OpRuntime = "runtime"
	// OpKill terminates an agent.
	OpKill = "kill"
	// OpStop suspends an agent.
	OpStop = "stop"
	// OpResume resumes a stopped agent.
	OpResume = "resume"
	// OpMetrics asks for the telemetry registry snapshot.
	OpMetrics = "metrics"
	// OpTrace asks for the spans of one trace id (in _ARG).
	OpTrace = "trace"
	// OpExplain asks for the system-wide merged timeline of one trace id
	// (in _ARG; "latest" selects the most recent trace). Served by the
	// tower collector through Config.Explain; fails when no tower is
	// attached.
	OpExplain = "explain"
	// OpPolicy asks for the active policy ruleset description (version,
	// default, one row per rule and quota with verdict ids). Read-only,
	// so Trusted suffices; fails when no policy engine is configured.
	OpPolicy = "policy"
	// OpPolicyLoad hot-reloads the policy ruleset from the text in _ARG.
	// System only. A ruleset that fails to parse is rejected whole and
	// the old one stays fully in effect.
	OpPolicyLoad = "policyload"
	// OpDir asks the directory plane member on this host for a
	// management dump; _ARG selects the verb (ring, counts, leases,
	// health). Read-only, so Trusted suffices; served through SetDir and
	// fails when the host is not a plane member.
	OpDir = "dir"
)

// Management folder names.
const (
	// FolderOp names the management operation.
	FolderOp = "_OP"
	// FolderArg carries the operation's argument (an agent URI).
	FolderArg = "_ARG"
	// FolderReply carries the operation's result rows.
	FolderReply = "_REPLY"
)

// handleManagement serves a briefcase addressed to the firewall itself.
func (fw *Firewall) handleManagement(m *mediation) error {
	senderPrincipal, bc := m.principal, m.bc
	if m.ruleID != "" && fw.eventsOn() {
		fw.record(vNote, telemetry.EventAllow, senderPrincipal, m.target.String(), "mgmt rule="+m.ruleID, bc)
	}
	fw.ctr.mgmtOps.Inc()
	op, _ := bc.GetString(FolderOp)

	required := identity.System
	if op == OpList || op == OpRuntime || op == OpMetrics || op == OpTrace || op == OpExplain || op == OpPolicy || op == OpDir {
		required = identity.Trusted
	}
	var opErr error
	var rows []string
	if err := fw.cfg.Trust.Require(senderPrincipal, required); err != nil {
		opErr = fmt.Errorf("%w: %v", ErrDenied, err)
		fw.record(vNote, telemetry.EventDeny, senderPrincipal, FirewallName, "mgmt "+op+": "+err.Error(), nil)
	} else {
		rows, opErr = fw.applyOp(op, bc)
	}

	// Reply to the sender; operation failures travel in the reply (RPC
	// semantics) and are only returned directly when no reply can be
	// delivered.
	sender, ok := replyTo(bc)
	if !ok || (sender.Name == "" && !sender.HasInstance) {
		return opErr
	}
	reply := briefcase.New()
	reply.SetString(briefcase.FolderSysTarget, sender.String())
	if id, okID := bc.GetString(FolderMsgID); okID {
		reply.SetString(FolderReplyTo, id)
	}
	if opErr != nil {
		reply.SetString(FolderKind, KindError)
		SetError(reply, opErr)
	} else {
		f := reply.Ensure(FolderReply)
		for _, row := range rows {
			f.AppendString(row)
		}
	}
	return fw.Send(fw.selfURI(), reply)
}

// SetDir binds the directory plane's management dump (served as the
// "dir" management op). Called by core when the host joins the plane.
func (fw *Firewall) SetDir(fn func(verb string) ([]string, error)) { fw.dir.Store(&fn) }

// applyOp executes one management operation and returns the reply rows.
func (fw *Firewall) applyOp(op string, bc *briefcase.Briefcase) ([]string, error) {
	arg, hasArg := bc.GetString(FolderArg)
	switch op {
	case OpTrace, OpPolicyLoad, OpRuntime, OpKill, OpStop, OpResume:
		if !hasArg {
			return nil, fmt.Errorf("firewall: %s needs %s", op, FolderArg)
		}
	}
	switch op {
	case OpList:
		infos := fw.List()
		rows := make([]string, 0, len(infos))
		for _, in := range infos {
			rows = append(rows, strings.Join([]string{
				in.URI.String(), in.VM, in.State.String(),
				strconv.FormatInt(int64(in.Runtime), 10),
			}, "|"))
		}
		return rows, nil
	case OpMetrics:
		snap := fw.tel.Registry().Snapshot()
		rows := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
		for k, v := range snap.Counters {
			rows = append(rows, "counter|"+k+"|"+strconv.FormatInt(v, 10))
		}
		for k, v := range snap.Gauges {
			rows = append(rows, "gauge|"+k+"|"+strconv.FormatInt(v, 10))
		}
		for k, h := range snap.Histograms {
			rows = append(rows, "histogram|"+k+"|count="+strconv.FormatInt(h.Count, 10)+
				"|sum="+h.Sum.String()+
				"|p50="+h.P50.String()+"|p95="+h.P95.String()+"|p99="+h.P99.String())
		}
		sort.Strings(rows)
		return rows, nil
	case OpTrace:
		spans := fw.tel.Spans()
		if spans == nil {
			return nil, errors.New("firewall: span collection disabled")
		}
		recs := spans.ForTrace(arg)
		rows := make([]string, 0, len(recs))
		for _, r := range recs {
			rows = append(rows, strings.Join([]string{
				r.SpanID, r.Parent, r.Name, r.Host,
				strconv.FormatInt(int64(r.Start), 10),
				strconv.FormatInt(int64(r.End), 10),
				r.Err,
			}, "|"))
		}
		return rows, nil
	case OpExplain:
		if fw.cfg.Explain == nil {
			return nil, errors.New("firewall: no tower collector attached (explain unavailable)")
		}
		return fw.cfg.Explain(cmp.Or(arg, "latest")), nil
	case OpPolicy:
		if fw.cfg.Policy == nil {
			return nil, errors.New("firewall: no policy engine configured")
		}
		return fw.cfg.Policy.Describe(), nil
	case OpDir:
		dir := fw.dir.Load()
		if dir == nil {
			return nil, errors.New("firewall: host is not a directory plane member")
		}
		return (*dir)(cmp.Or(arg, "ring"))
	case OpPolicyLoad:
		v, err := fw.ReloadPolicy(arg)
		if err != nil {
			return nil, err
		}
		return []string{"version|" + strconv.FormatUint(v, 10)}, nil
	case OpRuntime, OpKill, OpStop, OpResume:
		q, err := uri.Parse(arg)
		if err != nil {
			return nil, fmt.Errorf("firewall: %s: %w", op, err)
		}
		// Management matching ignores the empty-principal restriction:
		// the caller already proved System/Trusted privileges.
		fw.mu.RLock()
		matches := fw.lookupLocked(nil, q, "", true)
		fw.mu.RUnlock()
		if len(matches) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoAgent, q)
		}
		var rows []string
		for _, r := range matches {
			switch op {
			case OpRuntime:
				rows = append(rows, r.uri.String()+"|"+
					strconv.FormatInt(int64(fw.clock.Now()-r.registeredAt), 10))
			case OpKill:
				fw.Unregister(r)
				rows = append(rows, r.uri.String()+"|killed")
			case OpStop:
				r.stop()
				rows = append(rows, r.uri.String()+"|stopped")
			case OpResume:
				r.resume()
				rows = append(rows, r.uri.String()+"|running")
			}
		}
		return rows, nil
	default:
		return nil, fmt.Errorf("firewall: unknown operation %q", op)
	}
}
