// Package simnet is the simulated network substrate of the reproduction.
//
// The paper's evaluation compares elapsed time of the same computation
// executed locally on a web server versus across a 100 Mbit LAN. simnet
// reproduces that comparison deterministically: hosts are connected by
// links with a bandwidth, a propagation latency, and a fixed per-message
// overhead; each transfer is charged against virtual clocks (package
// vclock) and serialized on its link, so sequential request/response
// flows yield exact elapsed times without sleeping.
//
// Messages are delivered in real time through per-source dispatcher
// goroutines (one in-order queue per directed link, so each sender's
// messages arrive FIFO while different senders' handlers may run
// concurrently), while the virtual timestamps carry the simulated cost.
// A TCP implementation of the same Node interface (tcp.go) backs the
// live multi-process deployment path.
package simnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tax/internal/telemetry"
	"tax/internal/vclock"
)

var (
	// ErrUnknownHost is returned when sending to an unregistered host.
	ErrUnknownHost = errors.New("simnet: unknown host")
	// ErrPartitioned is returned when the pair of hosts is partitioned.
	ErrPartitioned = errors.New("simnet: hosts partitioned")
	// ErrClosed is returned when the host or network has been shut down.
	ErrClosed = errors.New("simnet: closed")
	// ErrHostDown is returned when either endpoint of a transfer is
	// crashed (Crash without a matching Restart).
	ErrHostDown = errors.New("simnet: host down")
	// ErrDropped is returned when an injected fault loses the message in
	// flight. The sender sees it the way a TCP sender sees a reset: the
	// link time was spent but nothing arrived.
	ErrDropped = errors.New("simnet: message dropped by fault injection")
)

// Decision is what a fault injector rules for one transfer. The zero
// value passes the message through untouched.
type Decision struct {
	// Drop loses the message: the link is charged but nothing is
	// delivered and the sender gets ErrDropped.
	Drop bool
	// Duplicate delivers the message twice (same payload, same arrival).
	Duplicate bool
	// Delay adds jitter to the arrival time on top of the link cost.
	Delay time.Duration
	// Corrupt flips bytes in the delivered payload (the sender's copy is
	// untouched); receivers see it as a decode or authentication failure.
	Corrupt bool
}

// Injector is consulted on every inter-host transfer. Implementations
// must be deterministic for a given (from, to, call sequence) to keep
// simulations reproducible, and may call back into the Network
// (Partition, Heal, Crash, Restart) to apply scheduled fault events —
// the network lock is not held during the call.
type Injector interface {
	Decide(from, to string, now time.Duration, size int) Decision
}

// FaultPoint is one injected fault actually applied to a transfer,
// reported to the fault observer: which directed link, when (sender's
// virtual time at the injection decision), what was done, and the trace
// context the payload was carrying (empty for untraced traffic). It is
// what lets an observability plane answer "this hop was slow because the
// plan delayed it", rather than just "it was slow".
type FaultPoint struct {
	From, To string
	Time     time.Duration
	// Kind is "drop", "duplicate", "delay" or "corrupt". A decision that
	// combines several produces one FaultPoint per aspect.
	Kind   string
	Detail string
	Trace  string
	Span   string
}

// Node is the transport endpoint the TAX firewall binds to: one per host,
// addressed by name, delivering opaque payloads. Both the simulated Host
// and the TCP node implement it.
type Node interface {
	// Addr returns the node's own address (host name, or host:port).
	Addr() string
	// Send delivers payload to the named peer. It does not retain
	// payload once it returns: callers may reuse the buffer.
	Send(to string, payload []byte) error
	// SetHandler installs the delivery callback. Deliveries from one
	// peer are serialized (per-link FIFO); deliveries from different
	// peers may invoke the handler concurrently, so handlers must be
	// safe for concurrent use. Must be called before the first message
	// arrives.
	SetHandler(h func(from string, payload []byte))
	// Close shuts the node down; further sends fail with ErrClosed.
	Close() error
}

// Profile describes one link class: how long a message of a given size
// takes to cross it.
type Profile struct {
	// Name labels the profile in reports ("lan100", "wan10", ...).
	Name string
	// Bandwidth is the link throughput in bytes per second.
	Bandwidth float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// MsgOverhead is the fixed per-message cost (connection and request
	// handling; what a small HTTP request pays beyond propagation).
	MsgOverhead time.Duration
}

// TransferTime returns the serialization cost of size bytes on the link:
// fixed overhead plus size divided by bandwidth. Propagation latency is
// charged separately (it does not occupy the link).
func (p Profile) TransferTime(size int) time.Duration {
	tx := time.Duration(0)
	if p.Bandwidth > 0 {
		tx = time.Duration(float64(size) / p.Bandwidth * float64(time.Second))
	}
	return p.MsgOverhead + tx
}

// RoundTrip returns the elapsed time of a request/response exchange with
// the given payload sizes on an idle link.
func (p Profile) RoundTrip(reqSize, respSize int) time.Duration {
	return p.TransferTime(reqSize) + p.Latency + p.TransferTime(respSize) + p.Latency
}

// Predefined link profiles. Bandwidths are in bytes/second (100 Mbit/s =
// 12.5e6 B/s). The LAN numbers are the calibration for the paper's
// department network (see internal/bench and EXPERIMENTS.md); the WAN
// profiles back the paper's "wide area network" extrapolation.
var (
	// Loopback models in-host communication: what the relocated agent
	// pays to talk to the co-located web server.
	Loopback = Profile{Name: "loopback", Bandwidth: 1.5e9, Latency: 5 * time.Microsecond, MsgOverhead: 20 * time.Microsecond}
	// LAN100 is the paper's 100 Mbit department LAN.
	LAN100 = Profile{Name: "lan100", Bandwidth: 12.5e6, Latency: 150 * time.Microsecond, MsgOverhead: 150 * time.Microsecond}
	// WAN10 is a 10 Mbit wide-area path.
	WAN10 = Profile{Name: "wan10", Bandwidth: 1.25e6, Latency: 20 * time.Millisecond, MsgOverhead: 1 * time.Millisecond}
	// WAN2 is a slow 2 Mbit wide-area path.
	WAN2 = Profile{Name: "wan2", Bandwidth: 0.25e6, Latency: 40 * time.Millisecond, MsgOverhead: 2 * time.Millisecond}
)

// LinkStats is a snapshot of one directed link's traffic counters.
type LinkStats struct {
	From, To string
	Messages int64
	Bytes    int64
}

type pairKey struct{ from, to string }

type link struct {
	profile   Profile
	busyUntil time.Duration // virtual time the link is transmitting until
	messages  int64
	bytes     int64
	// ctrMsgs/ctrBytes mirror the counters into the attached telemetry
	// registry (nil when no telemetry is attached; nil-safe no-ops).
	ctrMsgs  *telemetry.Counter
	ctrBytes *telemetry.Counter
}

// Network is a set of simulated hosts and the links between them.
type Network struct {
	mu             sync.Mutex
	defaultProfile Profile
	hosts          map[string]*Host
	links          map[pairKey]*link
	partitioned    map[pairKey]bool // symmetric
	crashed        map[string]bool
	onCrash        map[string]func()
	onRestart      map[string]func()
	inj            Injector
	faultObs       func(FaultPoint)
	tap            func(from, to string, payload []byte)
	closed         bool

	tel *telemetry.Telemetry
	// histTransfer observes each transfer's simulated duration (departure
	// to arrival, virtual time); non-nil only with detailed telemetry.
	histTransfer *telemetry.Histogram
}

// New creates a network whose host pairs default to the given profile.
func New(defaultProfile Profile) *Network {
	return &Network{
		defaultProfile: defaultProfile,
		hosts:          make(map[string]*Host),
		links:          make(map[pairKey]*link),
		partitioned:    make(map[pairKey]bool),
		crashed:        make(map[string]bool),
		onCrash:        make(map[string]func()),
		onRestart:      make(map[string]func()),
	}
}

// SetTap installs fn, called synchronously for every payload delivered
// over the wire with exactly the bytes the receiver will see (after any
// corrupting fault). fn must not retain payload. Tests use it to assert
// wire-level properties — byte-identical forwarding, container shapes —
// without instrumenting the endpoints; nil removes the tap.
func (n *Network) SetTap(fn func(from, to string, payload []byte)) {
	n.mu.Lock()
	n.tap = fn
	n.mu.Unlock()
}

// OnCrash registers fn to run whenever the named host crashes. The core
// layer uses it to wipe the host's volatile state — cabinet folders,
// park-table entries, in-flight VM registrations — so that only what was
// made durable survives. fn runs outside the network lock and may not
// call back into Crash/Restart for the same host.
func (n *Network) OnCrash(name string, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onCrash[name] = fn
}

// OnRestart registers fn to run whenever the named host restarts; the
// core layer uses it to replay the host's durable snapshot+WAL into a
// recovered process image. Same locking contract as OnCrash.
func (n *Network) OnRestart(name string, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onRestart[name] = fn
}

// SetInjector installs (or, with nil, removes) the fault injector
// consulted on every inter-host transfer.
func (n *Network) SetInjector(inj Injector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inj = inj
}

// SetFaultObserver installs (or, with nil, removes) the callback invoked
// once per fault aspect actually applied to a transfer. The callback runs
// outside the network lock, on the sender's goroutine, and must not call
// back into Send.
func (n *Network) SetFaultObserver(fn func(FaultPoint)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultObs = fn
}

// SetTelemetry attaches a telemetry instance: per-link message and byte
// counters mirror into its registry, and with detailed telemetry every
// transfer's simulated duration feeds the net.transfer histogram.
func (n *Network) SetTelemetry(t *telemetry.Telemetry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tel = t
	n.histTransfer = nil
	if t.Detailed() {
		n.histTransfer = t.Registry().Histogram("net.transfer")
	}
	for k, l := range n.links {
		l.ctrMsgs = t.Registry().Counter("net.messages", "from", k.from, "to", k.to)
		l.ctrBytes = t.Registry().Counter("net.bytes", "from", k.from, "to", k.to)
	}
}

// AddHost registers a host and starts its dispatcher.
func (n *Network) AddHost(name string) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if name == "" {
		return nil, fmt.Errorf("simnet: empty host name")
	}
	if _, ok := n.hosts[name]; ok {
		return nil, fmt.Errorf("simnet: duplicate host %q", name)
	}
	h := &Host{
		name:  name,
		net:   n,
		clock: vclock.NewVirtual(),
		peers: make(map[string]chan delivery),
		done:  make(chan struct{}),
	}
	n.hosts[name] = h
	return h, nil
}

// Host returns the named host.
func (n *Network) Host(name string) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	return h, nil
}

// Partition cuts communication between hosts a and b in both directions.
// Partitioning a host from itself is a no-op: loopback is machine-local
// and never crosses the network.
func (n *Network) Partition(a, b string) {
	if a == b {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[pairKey{a, b}] = true
	n.partitioned[pairKey{b, a}] = true
}

// Heal restores communication between hosts a and b. Healing a pair that
// is not partitioned (or an unknown host) is a no-op, so double heals
// are safe.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, pairKey{a, b})
	delete(n.partitioned, pairKey{b, a})
}

// Partitioned reports whether the pair is currently cut.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitioned[pairKey{a, b}]
}

// Crash marks a host as down, as a machine losing power: sends to and
// from it fail with ErrHostDown, its undelivered inbox is discarded, and
// the host's OnCrash hook runs — the core layer wipes volatile host
// state (cabinet folders, parked messages, VM registrations) there, so
// only state fsynced to the host's simulated disk survives to Restart.
func (n *Network) Crash(name string) {
	n.mu.Lock()
	h, ok := n.hosts[name]
	if !ok {
		n.mu.Unlock()
		return
	}
	if n.crashed[name] {
		n.mu.Unlock()
		return
	}
	n.crashed[name] = true
	hook := n.onCrash[name]
	n.mu.Unlock()
	h.peerMu.Lock()
	for _, q := range h.peers {
		for {
			select {
			case <-q:
				continue
			default:
			}
			break
		}
	}
	h.peerMu.Unlock()
	if hook != nil {
		hook()
	}
}

// Restart brings a crashed host back. The inbox starts empty; the
// host's virtual clock keeps its pre-crash value (a real machine's
// peers keep theirs, and the causal clock is what matters); the OnRestart
// hook then rebuilds the host's process image from its durable state.
func (n *Network) Restart(name string) {
	n.mu.Lock()
	if !n.crashed[name] {
		n.mu.Unlock()
		return
	}
	delete(n.crashed, name)
	hook := n.onRestart[name]
	n.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// Crashed reports whether the named host is currently crashed.
func (n *Network) Crashed(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[name]
}

// Stats returns traffic counters for every directed link that carried at
// least one message, sorted by (from, to).
func (n *Network) Stats() []LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]LinkStats, 0, len(n.links))
	for k, l := range n.links {
		out = append(out, LinkStats{From: k.from, To: k.to, Messages: l.messages, Bytes: l.bytes})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Close shuts down every host.
func (n *Network) Close() error {
	n.mu.Lock()
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	n.closed = true
	n.mu.Unlock()
	for _, h := range hosts {
		_ = h.Close()
	}
	return nil
}

// profileFor returns the link profile between two hosts: Loopback when
// they are the same host, else the network's default. A link's profile
// is fixed when the link is made.
func (n *Network) profileFor(from, to string) Profile {
	if from == to {
		return Loopback
	}
	return n.defaultProfile
}

// delivery is one in-flight message.
type delivery struct {
	from     string
	payload  []byte
	arriveAt time.Duration
}

// Host is a simulated machine: a virtual clock plus one in-order inbox
// per sending peer. A dispatcher goroutine per peer preserves the
// link's FIFO order while deliveries from different senders invoke the
// handler concurrently — the per-destination queue sharding that lets
// many agents use one host's firewall at once.
type Host struct {
	name  string
	net   *Network
	clock *vclock.Virtual

	peerMu sync.Mutex
	peers  map[string]chan delivery // per-source inboxes, by sender name

	handlerMu sync.RWMutex
	handler   func(from string, payload []byte)

	closeOnce sync.Once
	done      chan struct{}
}

var _ Node = (*Host)(nil)

// Addr returns the host name.
func (h *Host) Addr() string { return h.name }

// Clock returns the host's virtual clock.
func (h *Host) Clock() vclock.Clock { return h.clock }

// Charge advances the host's clock by a local computation cost.
func (h *Host) Charge(d time.Duration) { h.clock.Advance(d) }

// SetHandler installs the delivery callback.
func (h *Host) SetHandler(fn func(from string, payload []byte)) {
	h.handlerMu.Lock()
	defer h.handlerMu.Unlock()
	h.handler = fn
}

// Send transfers payload to the named host, charging the link's simulated
// cost: the transfer serializes on the directed link starting no earlier
// than the sender's current virtual time, and the receiver's clock
// advances to the arrival time when its dispatcher takes the delivery,
// after the charges of the link's earlier deliveries, so a send cannot
// race the receiver's handling of the one before it. The sender's own
// clock advances past the serialization (the sending process is busy
// while its message is on the wire, as a blocking send is).
func (h *Host) Send(to string, payload []byte) error {
	_, err := h.SendTimed(to, payload)
	return err
}

// SendTimed is Send returning the virtual arrival time.
func (h *Host) SendTimed(to string, payload []byte) (time.Duration, error) {
	_, arrive, err := h.sendTimed(to, payload, "", "", true)
	return arrive, err
}

// SendOwned is Send for payloads whose ownership passes to the network:
// the delivery aliases payload instead of taking the defensive copy Send
// makes. It keeps payload if and only if it returns nil — after nil the
// caller must not read or write payload; after an error nothing was
// delivered and payload is the caller's again, to retry or reuse. The
// firewall sends every buffer it owns this way (relayed frames and
// containers, flushed batch containers), so a batched frame crosses a
// whole relay chain in the one buffer its origin's batcher built, and
// only an unbatched origin forward — a pooled encode buffer — pays
// Send's copy. Simulated cost is identical to Send's.
func (h *Host) SendOwned(to string, payload []byte) error {
	_, _, err := h.sendTimed(to, payload, "", "", false)
	return err
}

// SendStamped is Send, or SendOwned when owned, that also reports txEnd,
// the sender-side instant the payload finished serializing onto the
// link: the moment the sender let go of it. The receiver runs
// concurrently from then on, and a fast reply can advance the sender's
// clock before the send returns, so a caller that stamps its hand-off
// reads txEnd rather than the clock. traceID and spanID name the
// itinerary the payload belongs to, so a fault injected on the wire is
// attributed to it; they ride out of band and change neither the
// payload nor its simulated cost.
func (h *Host) SendStamped(to string, payload []byte, owned bool, traceID, spanID string) (txEnd time.Duration, err error) {
	txEnd, _, err = h.sendTimed(to, payload, traceID, spanID, !owned)
	return txEnd, err
}

func (h *Host) sendTimed(to string, payload []byte, traceID, spanID string, copyPayload bool) (txEnd, arrive time.Duration, err error) {
	select {
	case <-h.done:
		return 0, 0, ErrClosed
	default:
	}

	n := h.net
	// Consult the fault injector before taking the network lock: the
	// injector may call back into Partition/Heal/Crash/Restart to apply
	// scheduled fault events as the sender's virtual time passes them.
	n.mu.Lock()
	inj := n.inj
	faultObs := n.faultObs
	n.mu.Unlock()
	var dec Decision
	decidedAt := h.clock.Now()
	if inj != nil && h.name != to {
		dec = inj.Decide(h.name, to, decidedAt, len(payload))
	}
	// observe reports each applied fault aspect once the transfer is known
	// to have reached the wire (decisions on sends that fail validation —
	// crashed peer, partition — never took effect and are not reported).
	observe := func() {
		if faultObs == nil {
			return
		}
		point := FaultPoint{From: h.name, To: to, Time: decidedAt, Trace: traceID, Span: spanID}
		if dec.Drop {
			p := point
			p.Kind = "drop"
			faultObs(p)
		}
		if dec.Duplicate {
			p := point
			p.Kind = "duplicate"
			faultObs(p)
		}
		if dec.Delay > 0 {
			p := point
			p.Kind = "delay"
			p.Detail = "by=" + dec.Delay.String()
			faultObs(p)
		}
		if dec.Corrupt {
			p := point
			p.Kind = "corrupt"
			faultObs(p)
		}
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0, 0, ErrClosed
	}
	dst, ok := n.hosts[to]
	if !ok {
		n.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownHost, to)
	}
	if n.crashed[h.name] || n.crashed[to] {
		down := to
		if n.crashed[h.name] {
			down = h.name
		}
		n.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %s", ErrHostDown, down)
	}
	if n.partitioned[pairKey{h.name, to}] {
		n.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %s <-> %s", ErrPartitioned, h.name, to)
	}
	key := pairKey{h.name, to}
	l, ok := n.links[key]
	if !ok {
		l = &link{profile: n.profileFor(h.name, to)}
		if n.tel != nil {
			l.ctrMsgs = n.tel.Registry().Counter("net.messages", "from", key.from, "to", key.to)
			l.ctrBytes = n.tel.Registry().Counter("net.bytes", "from", key.from, "to", key.to)
		}
		n.links[key] = l
	}

	depart := h.clock.Now()
	start := depart
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txEnd = start + l.profile.TransferTime(len(payload))
	l.busyUntil = txEnd
	arrive = txEnd + l.profile.Latency + dec.Delay
	l.messages++
	l.bytes += int64(len(payload))
	l.ctrMsgs.Inc()
	l.ctrBytes.Add(int64(len(payload)))
	hist := n.histTransfer
	tap := n.tap
	n.mu.Unlock()

	hist.Observe(arrive - depart)

	h.clock.AdvanceTo(txEnd)
	observe()
	if dec.Drop {
		// The link time was spent, but the message is lost in flight.
		return txEnd, 0, fmt.Errorf("%w: %s -> %s", ErrDropped, h.name, to)
	}

	// Send gives the receiver a delivery-private copy; SendOwned was
	// handed ownership of payload and delivers it as-is. (A corrupting
	// fault may then mutate the owned buffer in place — the sender
	// relinquished it.)
	data := payload
	if copyPayload {
		data = append([]byte(nil), payload...)
	}
	if dec.Corrupt {
		corruptPayload(data)
	}
	if tap != nil {
		tap(h.name, to, data)
	}
	msg := delivery{from: h.name, payload: data, arriveAt: arrive}
	if err := dst.enqueue(msg); err != nil {
		return txEnd, 0, err
	}
	if dec.Duplicate {
		// The original is delivered, so the send succeeded: a duplicate
		// the receiver no longer takes is simply not injected. Failing
		// here would have a retrying sender re-send a payload the
		// network already holds.
		_ = dst.enqueue(delivery{from: h.name, payload: append([]byte(nil), data...), arriveAt: arrive})
	}
	return txEnd, arrive, nil
}

// enqueue places one delivery on the inbox for its sending peer,
// creating the peer's queue and dispatcher on first contact. A closed
// host refuses every delivery: nil means the inbox holds msg.
func (h *Host) enqueue(msg delivery) error {
	select {
	case <-h.done:
		return ErrClosed
	default:
	}
	h.peerMu.Lock()
	q, ok := h.peers[msg.from]
	if !ok {
		q = make(chan delivery, 1024)
		h.peers[msg.from] = q
		go h.dispatch(q)
	}
	h.peerMu.Unlock()
	select {
	case q <- msg:
		return nil
	case <-h.done:
		return ErrClosed
	}
}

// corruptPayload flips fixed byte positions so damage is deterministic
// for a given payload: receivers see a frame that fails decoding or
// signature checks rather than a truncated one.
func corruptPayload(p []byte) {
	if len(p) == 0 {
		return
	}
	p[len(p)/2] ^= 0xA5
	p[len(p)-1] ^= 0x5A
}

// dispatch drains one peer's inbox, invoking the handler serially for
// that peer; other peers' dispatchers run concurrently.
func (h *Host) dispatch(q chan delivery) {
	for {
		select {
		case <-h.done:
			return
		case d := <-q:
			h.clock.AdvanceTo(d.arriveAt)
			h.handlerMu.RLock()
			fn := h.handler
			h.handlerMu.RUnlock()
			if fn != nil {
				fn(d.from, d.payload)
			}
		}
	}
}

// Close stops the host's dispatchers. Pending undelivered messages are
// dropped, as they would be on a crashed machine.
func (h *Host) Close() error {
	h.closeOnce.Do(func() { close(h.done) })
	return nil
}
