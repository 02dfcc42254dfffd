// The mediation pipeline: the one path every frame and briefcase takes
// through the reference monitor.
//
//	admit   → who is speaking: a live local registration (stamped into
//	          _SENDER), or an inbound frame (dedup, channel auth, decode,
//	          transfer auth); nothing for a message that re-enters
//	address → _TARGET, parse, then local or the resolved next hop
//	gate    → policy Eval: allow, deny, park, or quota
//	act     → deliver, park, forward, relay, or serve a management op
//	emit    → the verdict's counter, audit event, span end and histogram
//
// Entry points differ only in where they start. Send and handleInbound
// start at admit; a held message re-dispatched by a policy reload or
// crash recovery was admitted once already and starts at address; a
// registration flush keeps its admission-time verdict and starts at
// act. A frame whose header peeks address another host is a relay: it
// is admitted on its seal alone, never decoded, and skips gate (DESIGN
// §10 — its origin and its final host both gate it). Nothing else
// routes, counts a verdict or writes the audit log, so "is every path
// mediated?" is answered by reading mediate and emit.
package firewall

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"tax/internal/briefcase"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/telemetry"
	"tax/internal/uri"
	"tax/internal/vclock"
)

// origin is the door a mediation came through.
type origin uint8

const (
	originSend  origin = iota // Send: a local registration, or the firewall itself
	originFrame               // handleInbound: one frame off the transport
	originHeld                // dispatch: a parked message re-enters
	originFlush               // Register: a parked message meets its receiver
)

// stage is where an entry point joins the pipeline.
type stage uint8

const (
	stageAdmit stage = iota
	stageAddress
	stageAct
)

// mediation is one unit's state as it moves through the stages. It
// lives on its entry point's stack; no stage retains it.
type mediation struct {
	origin    origin
	sender    uri.URI              // originSend: the registration speaking
	from      string               // originFrame: the transport peer
	wire      []byte               // originFrame: the frame as delivered
	inner     []byte               // originFrame: wire minus its seal; header peeks read it while bc is nil
	bc        *briefcase.Briefcase // nil for a relayed frame, and once a receiver owns it
	principal string               // whom the gate judges and the audit log names

	targetStr  string // _TARGET as written, interned: it never aliases a frame
	target     uri.URI
	addressed  bool
	local      bool
	addr       string // off-host: the next hop's transport address
	unroutable error  // off-host: why Resolve could not name one

	relay   bool          // header-only forward of someone else's frame
	frames  int64         // relay: inner frames when the unit is a whole container
	ruleID  string        // gate: the matching rule
	allowed bool          // gate: an allow verdict awaits its terminal outcome
	held    bool          // gate: park until a reload says otherwise
	reg     *Registration // originFlush: the receiver

	out outcome // where the pipeline stopped, for emit

	trace, parent string // trace stamp, read before a receiver takes bc
	sp, route     *telemetry.Span
	tsp           *telemetry.Span // forward: the net.transfer child span
	clk           *handoffClock   // the clock sp, route and tsp read; nil until a span opens
	at            time.Duration   // handoff: the virtual instant the unit left the monitor
	stamped       bool            // transmit: at is the transport's own send instant
	handed        bool
	hist          *telemetry.Histogram
	t0            time.Time
}

// handoff stamps the virtual instant the unit leaves the monitor's hands:
// into a receiver's mailbox, or onto the wire. From then on the receiver
// acts concurrently — a reply it sends back advances this host's clock
// when it arrives — so the audit event and spans that close the
// mediation read this instant, not the live clock, and a seed replays
// the same timeline however the goroutines were scheduled. A send the
// transport stamped (transmit) hands off at the stamp; otherwise the
// clock is read now. With neither spans nor audit on, nothing reads it
// and the clock is not read.
func (fw *Firewall) handoff(m *mediation) {
	if m.clk == nil && !fw.eventsOn() {
		return
	}
	if !m.stamped {
		m.at = fw.clock.Now()
	}
	m.handed = true
	if m.clk != nil {
		m.clk.at, m.clk.frozen = m.at, true
	}
}

// now is the mediation's time: the host clock until the handoff.
func (m *mediation) now(c vclock.Clock) time.Duration {
	if m.handed {
		return m.at
	}
	return c.Now()
}

// handoffClock is the clock a mediation's spans read: the host clock, and
// from the handoff on, the handoff's instant. It lives on the heap beside
// the spans that hold it, so the mediation itself stays on its stack.
type handoffClock struct {
	vclock.Clock
	at     time.Duration
	frozen bool
}

func (c *handoffClock) Now() time.Duration {
	if c.frozen {
		return c.at
	}
	return c.Clock.Now()
}

// header reads a single-element envelope folder in place from whichever
// form the unit is in: the decoded briefcase, or the wire bytes of a
// frame that has not been (and, relayed, never will be) decoded. The
// bytes alias the unit; what outlives the mediation is interned or
// copied from them.
func (m *mediation) header(name string) ([]byte, bool) {
	if m.bc != nil {
		return m.bc.Peek(name)
	}
	e, err := briefcase.Peek(m.inner, name)
	return e, err == nil
}

// verdict classes an outcome. Each terminal verdict owns one counter
// (fw.tally, which only emit reads) and a default audit event type
// (verdictEvent).
type verdict uint8

const (
	vNote       verdict = iota // not terminal: an audit record, or nothing
	vDone                      // terminal, uncounted: served, duplicate, or shut down
	vDelivered                 // fw.delivered
	vForwarded                 // fw.forwarded
	vRelayed                   // fw.relayed
	vParked                    // fw.queued
	vHeld                      // fw.queued, and fw.policy_park beside it
	vDenied                    // fw.policy_deny
	vQuota                     // fw.policy_quota
	vAuthFailed                // fw.auth_failures
	vFailed                    // fw.errors: the caller gets an error back
	vDropped                   // fw.errors: nobody is waiting; the unit is discarded
	vExpired                   // fw.expired
)

var verdictEvent = [...]string{
	vDelivered: telemetry.EventAllow, vForwarded: telemetry.EventForward, vRelayed: telemetry.EventForward,
	vParked: telemetry.EventPark, vHeld: telemetry.EventPark, vDenied: telemetry.EventDeny,
	vQuota: telemetry.EventQuota, vAuthFailed: telemetry.EventDeny, vFailed: telemetry.EventError,
	vDropped: telemetry.EventDrop, vExpired: telemetry.EventExpire,
}

// outcome is what the stage that stopped the pipeline hands to emit, by
// value: it lives in the mediation, on the entry point's stack.
type outcome struct {
	verdict verdict
	typ     string // audit event type when not the verdict's own; a vNote or vDone without one records nothing
	target  string // event target; "" means the mediation's, once addressed
	cause   string
	rule    string // appended to cause as " rule=<id>"
	n       int64  // vRelayed: frames forwarded (0 counts as one)
	refused bool   // the monitor's own refusal: a remote sender is told, typed
	err     error
}

// stop records the outcome that ends the pipeline. Stages return its
// false to say so; true passes the unit downstream. The outcome's rarer
// fields (typ, target, rule, refused) are set on m.out beside the call:
// a by-value literal here would cost every stage a stack temporary per
// exit, and these frames sit under every decode and every send.
func (m *mediation) stop(v verdict, cause string, err error) bool {
	m.out.verdict, m.out.cause, m.out.err = v, cause, err
	return false
}

// mediate runs a unit through the pipeline — the stages in order, from
// the one its entry point names, until one of them stops it (every act
// does) — and emits the outcome.
func (fw *Firewall) mediate(m *mediation, from stage) error {
	if m.hist != nil {
		m.t0 = time.Now()
	}
	// Cases are tried in order, and a stage's case is true when the stage
	// stopped the pipeline: the first four are the stages, the rest act.
	switch {
	case from == stageAdmit && m.origin == originFrame && !fw.admitFrame(m):
	case from == stageAdmit && m.origin == originSend && !fw.admitSend(m):
	case from <= stageAddress && !m.relay && !fw.address(m):
	case from < stageAct && !m.relay && !fw.gate(m):
	case m.reg != nil:
		fw.deliver(m, m.reg, 0)
	case m.held:
		fw.route(m)
	case !m.local:
		fw.forward(m)
	case m.target.Name == FirewallName || Kind(m.bc) == KindManagement:
		m.stop(vDone, "", fw.handleManagement(m))
	default:
		m.route = fw.span(m, "fw.route")
		fw.route(m)
	}
	err := fw.emit(m, &m.out)
	if m.out.refused && m.origin == originFrame {
		// A rejection of cross-host traffic travels back typed: the
		// sender's side reconstructs the sentinel from _ERRCODE.
		fw.replyError(m.bc, err.Error(), err)
	}
	return err
}

// admitSend is admission for a local sender. An instanced sender names
// a specific registration, and the monitor only speaks for ones it
// still holds: a goroutine that outlived its host's crash (the
// simulated machine died, the Go scheduler did not) cannot talk through
// the rebooted firewall with its pre-crash identity. _SENDER is
// overwritten with the authenticated URI, so receivers can trust it.
func (fw *Firewall) admitSend(m *mediation) bool {
	var reg *Registration
	fw.mu.RLock()
	closed := fw.closed
	if regs := fw.regs[m.sender.Name]; m.sender.HasInstance {
		if i := slices.IndexFunc(regs, func(r *Registration) bool { return r.uri.Instance == m.sender.Instance }); i >= 0 {
			reg = regs[i]
		}
	}
	fw.mu.RUnlock()
	switch {
	case closed:
		return m.stop(vDone, "", ErrClosed)
	case m.sender.HasInstance && reg == nil:
		m.out.typ, m.out.target = telemetry.EventDeny, m.sender.String()
		return m.stop(vFailed, "send from dead registration", fmt.Errorf("%w: %s", ErrSenderGone, m.sender))
	}
	if reg != nil && reg.GlobalURI() == m.sender {
		// The usual sender: a registration speaking under its own global
		// URI, which is rendered once per registration and aliased by
		// every message it sends.
		f := m.bc.Ensure(briefcase.FolderSysSender)
		f.Clear()
		f.AppendAlias(reg.senderStamp())
	} else {
		m.bc.SetString(briefcase.FolderSysSender, m.sender.String())
	}
	return true
}

// admitFrame is admission for a frame off the wire. Every refusal is
// audited: a reference monitor must not lose messages without a trace.
func (fw *Firewall) admitFrame(m *mediation) bool {
	if fw.dedup != nil && fw.dedup.observe(m.wire) {
		fw.ctr.dupDropped.Inc()
		m.out.typ = telemetry.EventDrop
		return m.stop(vDone, "duplicate frame from "+m.from, nil)
	}
	if fw.cfg.Relay {
		// The relay fast path: a frame whose header peeks address another
		// host is admitted on its seal alone and never decoded here.
		// Frames the peeks cannot read, or that are for this host, take
		// full admission below, whose audit events name any defect.
		if sealed, elsewhere := fw.peek(m, m.wire); elsewhere {
			m.relay = true
			switch {
			case !fw.cfg.ChannelAuth:
			case !sealed:
				return m.stop(vAuthFailed, "relay: frame not sealed (from "+m.from+")", nil)
			default:
				if err := verifySeal(fw.cfg.Trust, m.wire, m.inner); err != nil {
					return m.stop(vAuthFailed, "relay channel auth from "+m.from+": "+err.Error(), nil)
				}
			}
			return true
		}
		m.addressed, m.out = false, outcome{}
	}
	inner, err := openFrame(fw.cfg.Trust, fw.cfg.ChannelAuth, m.wire)
	if errors.Is(err, ErrChannelAuth) {
		return m.stop(vAuthFailed, "channel auth from "+m.from+": "+err.Error(), nil)
	} else if err != nil {
		return m.stop(vDropped, "bad frame from "+m.from+": "+err.Error(), nil)
	}
	bc, err := briefcase.Decode(inner)
	if err != nil {
		return m.stop(vDropped, "undecodable briefcase from "+m.from+": "+err.Error(), nil)
	}
	m.bc = bc
	if sender, ok := replyTo(bc); ok {
		m.principal = sender.Principal
	}
	m.sp = fw.span(m, "fw.inbound")
	m.sp.SetAttr("from", m.from)
	// First-level authentication (§3.2): inbound agent transfers must
	// carry a core signed by a principal this host knows.
	if Kind(bc) == KindTransfer && fw.cfg.RequireAuth {
		_, cached, hashed, err := verifyCore(bc, fw.cfg.Trust, identity.Untrusted, fw.memo)
		if hashed {
			fw.ctr.coreHashed.Inc()
		}
		switch {
		case err != nil:
			fw.ctr.coreVerifyFail.Inc()
			m.out.refused = true
			return m.stop(vAuthFailed, "transfer auth: "+err.Error(), fmt.Errorf("transfer rejected: %w", err))
		case cached:
			fw.ctr.coreVerifyHit.Inc()
		default:
			fw.ctr.coreVerifyMiss.Inc()
		}
	}
	return true
}

// peek addresses a frame off its header peeks alone: whether it carries
// a channel seal, and whether its target is on another host.
func (fw *Firewall) peek(m *mediation, frame []byte) (sealed, elsewhere bool) {
	if m.inner, sealed = peekSealed(frame); !sealed {
		m.inner = frame
	}
	return sealed, fw.address(m) && !m.local
}

// address reads _TARGET, parses it, and classifies it: this host, or
// the next hop Resolve names. A held message arrives already parsed. A
// Resolve failure is kept, not returned: it becomes the outcome at act,
// after the gate has spoken, so a denied sender learns nothing about
// which hosts this one can route to.
func (fw *Firewall) address(m *mediation) bool {
	frame := m.origin == originFrame
	if m.origin != originHeld {
		raw, ok := m.header(briefcase.FolderSysTarget)
		if !ok && frame {
			return m.stop(vDropped, "inbound briefcase has no target", nil)
		} else if !ok {
			return m.stop(vFailed, "briefcase has no target", ErrNoTarget)
		}
		a, err := uri.ParseBytes(raw)
		m.targetStr, m.target = a.Text, a.URI
		if err != nil {
			m.out.target = m.targetStr
			if frame {
				return m.stop(vDropped, "bad target: "+err.Error(), nil)
			}
			return m.stop(vFailed, "bad target: "+err.Error(), fmt.Errorf("firewall: bad target: %w", err))
		}
	}
	m.addressed, m.local = true, fw.isLocal(m.target)
	if m.origin == originSend {
		m.sp = fw.span(m, "fw.send")
		m.sp.SetAttr("target", m.targetStr)
	}
	if frame && m.bc != nil && !m.local {
		// Fully admitted, so not a relay's to forward (Relay is off, or
		// the peeks could not read it): a firewall does not carry
		// third-party traffic it has not been told to.
		return m.stop(vDropped, "target not on this host", nil)
	}
	if !m.local {
		m.addr, m.unroutable = fw.cfg.Resolve(m.target.Host, m.target.EffectivePort())
	}
	return true
}

// gate is the one policy evaluation site. The system principal is the
// trusted computing base the engine itself depends on (replies, error
// envelopes) and is exempt. Local deliveries are message-metered here;
// remote forwards are byte-metered in forward, once the frame exists.
func (fw *Firewall) gate(m *mediation) bool {
	eng := fw.cfg.Policy
	if eng == nil || m.principal == fw.cfg.SystemPrincipal {
		return true
	}
	// Patterns see one canonical form: a local target carries this
	// host's name, whether the sender wrote it or not.
	norm := m.target
	if norm.Host == "" {
		norm.Host = fw.cfg.HostName
	}
	v := eng.Eval(m.principal, policyOpFor(m.target, m.bc), norm)
	m.ruleID = v.RuleID
	switch v.Effect {
	case policy.Deny:
		m.out.rule, m.out.refused = v.RuleID, true
		return m.stop(vDenied, "policy", fmt.Errorf("%w (rule %s)", ErrPolicyDenied, v.RuleID))
	case policy.Park:
		m.held = true
		return true
	}
	m.allowed = true
	return !m.local || fw.charge(m, 0)
}

// charge debits the sender's quota buckets: one message, plus the bytes
// that cross the wire. A refusal supersedes the allow it follows.
func (fw *Firewall) charge(m *mediation, bytes int64) bool {
	if qid, ok := fw.cfg.Policy.Charge(m.principal, bytes); !ok {
		m.allowed, m.out.refused, m.out.rule = false, true, qid
		return m.stop(vQuota, "quota", fmt.Errorf("%w (rule %s)", ErrQuotaExceeded, qid))
	}
	return true
}

// route finds the local receiver and delivers, or parks the message: for
// a receiver that has not arrived yet, or — held — until a policy reload
// releases it (registration flushes skip held messages).
func (fw *Firewall) route(m *mediation) {
	// The read lock lets unrelated mediations run concurrently while
	// still ordering each one against registration changes: parking
	// happens inside the read section, so a concurrent Register either
	// completes before the lookup (and is found) or starts after the
	// park (and its flush scan finds the parked message).
	fw.mu.RLock()
	if fw.closed {
		fw.mu.RUnlock()
		m.out.typ = telemetry.EventDrop
		m.stop(vDone, "firewall closed", ErrClosed)
		return
	}
	var one [1]*Registration
	var matches []*Registration
	var chosen *Registration
	if !m.held {
		// Prefer an exact instance match, then registration order.
		matches = fw.lookupLocked(one[:0], m.target, m.principal, false)
		for _, r := range matches {
			if chosen == nil || (m.target.HasInstance && r.uri.Instance == m.target.Instance) {
				chosen = r
			}
		}
	}
	if chosen != nil {
		fw.mu.RUnlock()
		fw.deliver(m, chosen, len(matches))
		return
	}
	fw.parkMsg(m.principal, m.target, m.bc, m.held)
	fw.mu.RUnlock()
	m.out.rule = m.ruleID
	if m.held {
		m.stop(vHeld, "policy", nil)
	} else {
		m.stop(vParked, "receiver not registered", nil)
	}
}

// deliver hands the briefcase to r's mailbox. The trace stamp is read
// first: once delivered, the receiving goroutine owns the briefcase and
// may mutate its folders concurrently.
func (fw *Firewall) deliver(m *mediation, r *Registration, matched int) {
	flush, cause := m.origin == originFlush, ""
	if fw.eventsOn() {
		// The allow record carries the matched decision, so an explain
		// timeline shows the verdict inline rather than a bare "allow".
		m.trace, m.parent = traceCtx(m.bc)
		m.out.target = r.uri.String()
		switch {
		case flush:
			cause = "unparked on registration"
		case m.target.HasInstance && r.uri.Instance == m.target.Instance:
			cause = "exact instance"
		default:
			cause = "matched " + strconv.Itoa(matched)
		}
		if m.ruleID != "" {
			cause = "rule=" + m.ruleID + " " + cause
		}
	}
	bc := m.bc
	m.bc = nil
	// The hop is charged before the receiver holds bc, so whatever it
	// does next starts after the charge.
	if !flush {
		fw.clock.Advance(fw.cfg.LocalHopCost)
	}
	fw.handoff(m)
	// The spans end at the hand-off instant, before the receiver holds
	// bc: what it records on this host next is recorded after them. A
	// mailbox that then refuses bc is named by the drop event alone.
	m.route.End()
	m.sp.End()
	m.route, m.sp = nil, nil
	switch err := r.deliver(bc); {
	case err != nil && flush:
		m.stop(vDropped, "unpark failed: "+err.Error(), err)
	case err != nil:
		m.out.target = ""
		m.stop(vDropped, err.Error(), err)
	default:
		m.stop(vDelivered, cause, nil)
	}
}

// forward pushes a unit toward its next hop: a relayed frame's (or
// container's) wire bytes verbatim, or a briefcase encoded, sealed and
// charged against its sender's byte quota. Either joins the link's
// batch queue when batching is on, else goes out under transmit's retry
// loop.
func (fw *Firewall) forward(m *mediation) {
	label := ""
	if m.relay {
		label = "relay "
	}
	switch {
	case m.unroutable != nil && m.relay:
		m.stop(vDropped, "relay resolve: "+m.unroutable.Error(), nil)
		return
	case m.unroutable != nil:
		m.stop(vFailed, "resolve: "+m.unroutable.Error(), fmt.Errorf("firewall: resolve %s: %w", m.target.Host, m.unroutable))
		return
	case m.relay && m.addr == m.from:
		// Split horizon: a route that points a frame straight back where
		// it came from is a loop, not a path. (Longer cycles are the
		// operator's responsibility — next-hop tables carry no TTL.)
		m.stop(vDropped, "relay loop: next hop is previous hop "+m.from, nil)
		return
	}
	frame, release, rp := m.wire, func() {}, fw.cfg.ForwardRetry
	if !m.relay {
		// Encoded into a pooled buffer: both transports and the batch
		// queue copy the payload inside their call, so the buffer is
		// recycled once the frame is handed off.
		frame, release = m.bc.EncodePooled()
		rp = fw.forwardPolicy(m.bc)
		m.inner = frame
	}
	if fw.cfg.ChannelSigner != nil {
		// Hop-by-hop authentication: a relay's seal replaces the previous
		// hop's. The payload region is aliased into the outer frame and
		// copied once, by its encode — so a pooled buffer goes back now,
		// and a relay re-mediates headers only, never the payload.
		frame = sealFrame(fw.cfg.ChannelSigner, m.inner)
		release()
		release = func() {}
	}
	if m.allowed && !fw.charge(m, int64(len(frame))) {
		release()
		return
	}
	if m.sp != nil {
		// The transfer gets its own child span so per-hop migration cost
		// splits into mediation versus wire time, backoffs included.
		trace, _ := m.bc.GetString(briefcase.FolderSysTrace)
		m.tsp = fw.tel.Spans().Start(m.clk, fw.cfg.HostName, trace, m.sp.ID(), "net.transfer")
		m.tsp.SetAttr("to", m.addr)
		m.tsp.SetAttr("bytes", strconv.Itoa(len(frame)))
	}
	// A relayed container is already the coalesced transport message:
	// re-enqueueing it would nest containers, which receivers reject.
	batched, attempts := fw.batch != nil && m.frames == 0, 1
	var err error
	if batched {
		// Agent transfers flush inline so Go/Spawn keep synchronous errors.
		kind, _ := m.header(FolderKind)
		err = fw.batch.enqueue(m.addr, frame, string(kind) == KindTransfer)
		m.tsp.SetAttr("batched", "true")
	} else if attempts, err = fw.transmit(m, frame, rp, label); attempts > 1 {
		m.tsp.SetAttr("attempts", strconv.Itoa(attempts))
	}
	fw.handoff(m)
	release()
	m.tsp.SetErr(err)
	m.tsp.End()
	if err != nil {
		fw.forwardFailed(m, err, label, batched, rp.Enabled(), attempts)
		return
	}
	cause := ""
	switch {
	case !fw.eventsOn():
	case m.frames > 0:
		cause = fmt.Sprintf("relayed container of %d frames from %s", m.frames, m.from)
	case m.relay:
		cause = "relayed to " + m.addr
	case batched:
		cause = "batched to " + m.addr
	default:
		cause = "to " + m.addr
	}
	if m.frames > 0 {
		fw.ctr.relayContainers.Inc()
		m.out.target, m.out.n = m.addr, m.frames
	}
	if m.out.rule = m.ruleID; m.relay {
		m.stop(vRelayed, cause, nil)
	} else {
		m.stop(vForwarded, cause, nil)
	}
}

// forwardFailed is forward's failure epilogue: the error outcome and,
// when a retry policy was spent on it, the give-up record after it.
func (fw *Firewall) forwardFailed(m *mediation, err error, label string, batched, retried bool, attempts int) {
	m.stop(vFailed, label+"forward: "+err.Error(), err)
	switch {
	case m.relay:
		m.out.target = m.addr
	case !batched:
		m.out.err = fmt.Errorf("firewall: forward to %s: %w", m.addr, err)
		if retried {
			fw.emit(m, &outcome{typ: telemetry.EventError, cause: m.out.cause})
			m.out.typ, m.out.cause = telemetry.EventGiveUp, fmt.Sprintf("forward abandoned after %d attempts: %v", attempts, err)
		}
	}
}

// emit is the single exit: the verdict's counter, the audit event, the
// spans' end and the latency histogram. One terminal outcome bumps
// exactly one of the counters tabled in fw.tally — plus fw.policy_allow when
// the gate's allow is what let the unit through, and fw.policy_park
// beside a held queue. A vNote outcome only writes its audit record.
func (fw *Firewall) emit(m *mediation, o *outcome) error {
	if t := fw.tally[o.verdict]; t != nil {
		t.Add(max(o.n, 1))
	}
	if o.verdict == vHeld {
		fw.ctr.policyPark.Inc()
	}
	if m.allowed && o.verdict != vNote {
		fw.ctr.policyAllow.Inc()
	}
	typ := cmp.Or(o.typ, verdictEvent[o.verdict])
	if ev := fw.tel.Events(); ev != nil && typ != "" {
		e := telemetry.Event{Time: m.now(fw.clock), Type: typ, Principal: m.principal, Target: o.target,
			Cause: o.cause, Trace: m.trace, Span: m.parent}
		if e.Target == "" && m.addressed {
			// Local verdicts name the parsed target, forwards the target
			// as the sender wrote it.
			if e.Target = m.targetStr; m.local || e.Target == "" {
				e.Target = m.target.String()
			}
		}
		if o.rule != "" {
			e.Cause += " rule=" + o.rule
		}
		if m.bc != nil {
			e.Trace, e.Span = traceCtx(m.bc)
		}
		ev.Append(e)
	}
	if o.verdict == vNote {
		return o.err
	}
	for _, sp := range [2]*telemetry.Span{m.route, m.sp} {
		switch {
		case o.verdict == vParked || o.verdict == vHeld:
			sp.SetAttr("outcome", "parked")
		case typ == telemetry.EventDrop && o.err == nil:
			sp.SetAttr("outcome", "dropped")
		}
		sp.SetErr(o.err)
		sp.End()
	}
	if m.hist != nil {
		m.hist.Observe(time.Since(m.t0))
	}
	return o.err
}

// record emits an outcome reached outside the pipeline — an expiry, a
// malformed container, a failed flush — or, as a vNote, writes a bare
// audit record of a lifecycle event; bc, when in hand, lends its trace
// stamp. It is a
// frame of its own, so the scratch mediation emit reads never sits on a
// hot caller's stack.
//
//go:noinline
func (fw *Firewall) record(v verdict, typ, principal, target, cause string, bc *briefcase.Briefcase) {
	var m mediation
	m.principal, m.bc = principal, bc
	m.out.verdict, m.out.typ, m.out.target, m.out.cause = v, typ, target, cause
	fw.emit(&m, &m.out)
}

// eventsOn reports whether audit events are collected. Hot paths check
// it before building an event's cause string, so the disabled case pays
// no allocation for string concatenation that would be thrown away.
func (fw *Firewall) eventsOn() bool { return fw.tel.Events() != nil }

// traceCtx reads the briefcase's trace stamp.
func traceCtx(bc *briefcase.Briefcase) (trace, span string) {
	trace, _ = bc.GetString(briefcase.FolderSysTrace)
	span, _ = bc.GetString(briefcase.FolderSysSpan)
	return trace, span
}

// span opens a mediation span when span collection is on and the
// briefcase carries a trace context; otherwise it returns the nil no-op
// span. The span reads the mediation's handoff clock.
func (fw *Firewall) span(m *mediation, name string) *telemetry.Span {
	spans := fw.tel.Spans()
	if spans == nil {
		return nil
	}
	trace, ok := m.bc.GetString(briefcase.FolderSysTrace)
	if !ok {
		return nil
	}
	if m.clk == nil {
		m.clk = &handoffClock{Clock: fw.clock}
	}
	parent, _ := m.bc.GetString(briefcase.FolderSysSpan)
	return spans.Start(m.clk, fw.cfg.HostName, trace, parent, name)
}

// replyTo parses a briefcase's _SENDER, read in place, as the address
// for a reply; ok is false when it names nobody a reply could reach.
func replyTo(bc *briefcase.Briefcase) (uri.URI, bool) {
	s, _ := bc.Peek(briefcase.FolderSysSender)
	a, err := uri.ParseBytes(s)
	sender := a.URI
	return sender, err == nil && (sender.Name != "" || sender.HasInstance || sender.Principal != "")
}

// replyError sends a KindError report back to orig's sender (best
// effort). cause, when registered, stamps the report's _ERRCODE so the
// sender gets an errors.Is-able failure back.
func (fw *Firewall) replyError(orig *briefcase.Briefcase, reason string, cause error) {
	sender, ok := replyTo(orig)
	if !ok {
		return
	}
	report := errorReport(fw.selfURI().String(), sender.String(), reason)
	SetErrorCode(report, cause)
	if id, ok := orig.GetString(FolderMsgID); ok {
		report.SetString(FolderReplyTo, id)
	}
	_ = fw.Send(fw.selfURI(), report)
}
