package telemetry

import (
	"sync"
	"time"
)

// Event types: every mediation decision a firewall takes on a briefcase is
// one of these — the paper's reference-monitor audit trail.
const (
	// EventAllow records a successful local delivery.
	EventAllow = "allow"
	// EventDeny records a policy or authentication rejection.
	EventDeny = "deny"
	// EventPark records a briefcase queued for an absent receiver.
	EventPark = "park"
	// EventExpire records a parked briefcase dropped on timeout.
	EventExpire = "expire"
	// EventDrop records a briefcase discarded for any other reason
	// (malformed frame, no target, wrong host, full mailbox, shutdown).
	EventDrop = "drop"
	// EventForward records a briefcase sent on to a remote firewall.
	EventForward = "forward"
	// EventError records a routing error reported back to the caller.
	EventError = "error"
	// EventRetry records a failed remote forward being retried after a
	// backoff (the attempt that failed, not the one about to start).
	EventRetry = "retry"
	// EventGiveUp records a remote forward abandoned after exhausting its
	// retry policy (attempts or deadline).
	EventGiveUp = "giveup"
	// EventRecover records a rear-guard restoring an agent from its last
	// checkpoint after declaring a hop dead.
	EventRecover = "recover"
	// EventFlush records a batched-mediation flush pushing a container of
	// coalesced frames onto one link.
	EventFlush = "flush"
	// EventQuota records a briefcase refused because the sending
	// principal's rate or byte quota was exhausted (the policy engine's
	// token buckets); the cause names the quota rule that refused.
	EventQuota = "quota"
)

// Event is one structured audit-log entry.
type Event struct {
	// Seq is the event's position in its log's append order (1-based),
	// stamped by Append. It makes ring-buffer wraparound observable: the
	// retained window is always the contiguous tail of the sequence, and
	// consumers that merge several logs deduplicate by (host, seq).
	Seq uint64 `json:"seq"`
	// Time is the recording host's virtual time.
	Time time.Duration `json:"time"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Principal is the authenticated sender principal ("" when unknown).
	Principal string `json:"principal,omitempty"`
	// Target is the destination agent URI the decision concerned.
	Target string `json:"target,omitempty"`
	// Cause explains the decision ("mailbox full", "queue timeout", ...).
	Cause string `json:"cause,omitempty"`
	// Trace and Span carry the trace context active when the event was
	// recorded ("" for untraced traffic), correlating every mediation
	// verdict with the itinerary that provoked it.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// EventLog is a bounded ring buffer of events: the newest Cap entries are
// retained. A nil log disables event collection; Append on nil is a no-op.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
	sink  func(Event)
}

// NewEventLog returns a log keeping the newest cap events (default 1024
// when cap <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// SetSink installs fn, called once per appended event after its Seq is
// stamped. The call happens outside the log's lock, so a sink may inspect
// the log; sink invocations from concurrent appenders may therefore be
// observed out of Seq order — order-sensitive consumers sort by Seq.
func (l *EventLog) SetSink(fn func(Event)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = fn
	l.mu.Unlock()
}

// Append records one event, stamping its sequence number.
func (l *EventLog) Append(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.total++
	e.Seq = l.total
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next = (l.next + 1) % cap(l.buf)
	}
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// Total returns the number of events ever appended (including overwritten
// ones); 0 on nil.
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the retained events, oldest first.
func (l *EventLog) Snapshot() []Event {
	s, _ := l.SnapshotTotal()
	return s
}

// SnapshotTotal returns the retained events (oldest first) together with
// the total ever appended, read under one lock — the two are mutually
// consistent even while concurrent appends wrap the ring, which separate
// Snapshot and Total calls cannot guarantee.
func (l *EventLog) SnapshotTotal() ([]Event, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out, l.total
}

// Reset discards the retained events, as a host crash discards any other
// volatile state. The sequence counter keeps advancing across the wipe so
// post-crash events never reuse a pre-crash Seq.
func (l *EventLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	l.next = 0
}
