// Package group implements the group-communication substrate behind the
// paper's group wrapper (§4): "As the wrapper is instantiated, it is
// given parameters such as group membership (all agents sharing common
// class), and desired properties of communication (casual, FIFO, atomic,
// etc)."
//
// The package provides per-member ordering engines, independent of
// transport: callers feed received envelopes in and take deliverable
// messages out. Three orderings are offered:
//
//   - FIFO: per-sender order (sequence numbers + reorder buffer).
//   - Causal: vector-clock causal order.
//   - Total: a sequencer member assigns a global order ("atomic"
//     broadcast in the paper's vocabulary).
//
// The stacking mirrors Horus/Ensemble, which the paper cites as its
// architectural precedent.
package group

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Ordering selects the delivery guarantee of a channel.
type Ordering int

// Supported orderings.
const (
	// FIFO delivers each sender's messages in send order.
	FIFO Ordering = iota + 1
	// Causal delivers messages respecting potential causality.
	Causal
	// Total delivers all messages in one global order on every member.
	Total
)

// String returns the ordering name.
func (o Ordering) String() string {
	switch o {
	case FIFO:
		return "fifo"
	case Causal:
		return "causal"
	case Total:
		return "total"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// ParseOrdering parses "fifo", "causal" or "total".
func ParseOrdering(s string) (Ordering, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "causal":
		return Causal, nil
	case "total":
		return Total, nil
	default:
		return 0, fmt.Errorf("group: unknown ordering %q", s)
	}
}

// Envelope is one group message with its ordering metadata. Envelopes are
// rendered into briefcase folders by the wrapper; this package only needs
// the metadata.
type Envelope struct {
	// Sender is the member id of the originator.
	Sender string
	// Seq is the per-sender sequence number (FIFO, Total with sequencer
	// stamping GlobalSeq).
	Seq uint64
	// GlobalSeq is the sequencer-assigned slot (Total only).
	GlobalSeq uint64
	// VC is the sender's vector clock at send time (Causal only).
	VC VectorClock
	// Payload is the application message, opaque to the engine.
	Payload []byte
}

// VectorClock maps member ids to event counts.
type VectorClock map[string]uint64

// Clone copies the clock.
func (v VectorClock) Clone() VectorClock {
	c := make(VectorClock, len(v))
	for k, n := range v {
		c[k] = n
	}
	return c
}

// lessEq reports whether v ≤ o componentwise (v happened-before-or-equal).
func (v VectorClock) lessEq(o VectorClock) bool {
	for k, n := range v {
		if n > o[k] {
			return false
		}
	}
	return true
}

// Merge takes the componentwise maximum of v and o into v.
func (v VectorClock) Merge(o VectorClock) {
	for k, n := range o {
		if n > v[k] {
			v[k] = n
		}
	}
}

// Encode renders the clock as "a=1,b=2" with keys sorted.
func (v VectorClock) Encode() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+strconv.FormatUint(v[k], 10))
	}
	return strings.Join(parts, ",")
}

// DecodeVC parses the Encode format.
func DecodeVC(s string) (VectorClock, error) {
	v := VectorClock{}
	if s == "" {
		return v, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, n, ok := strings.Cut(part, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("group: bad vector clock component %q", part)
		}
		c, err := strconv.ParseUint(n, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("group: bad vector clock count %q", n)
		}
		v[k] = c
	}
	return v, nil
}

// ErrUnknownMember is returned when an envelope names a member outside
// the group.
var ErrUnknownMember = errors.New("group: unknown member")

// Engine is one member's ordering state: it stamps outgoing envelopes
// and buffers incoming ones until they are deliverable. Engines are safe
// for concurrent use.
type Engine struct {
	mu       sync.Mutex
	self     string
	members  map[string]bool
	ordering Ordering

	// FIFO/Total: next expected per-sender seq; Total: delivery cursor
	// (nextGlobal) and the sequencer's allocation counter (seqAlloc) —
	// kept separate so a sequencer that is also a delivering member does
	// not corrupt its own delivery order by assigning slots.
	sendSeq    uint64
	nextRecv   map[string]uint64
	nextGlobal uint64
	seqAlloc   uint64
	// Causal state.
	vc VectorClock
	// held are undeliverable envelopes waiting for their predecessors.
	held []Envelope
}

// NewEngine creates a member's engine. members must include self.
func NewEngine(self string, members []string, ordering Ordering) (*Engine, error) {
	set := make(map[string]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	if !set[self] {
		return nil, fmt.Errorf("%w: self %q not in member list", ErrUnknownMember, self)
	}
	e := &Engine{
		self:     self,
		members:  set,
		ordering: ordering,
		nextRecv: make(map[string]uint64),
		vc:       VectorClock{},
	}
	for m := range set {
		e.nextRecv[m] = 1
	}
	return e, nil
}

// Self returns the member id.
func (e *Engine) Self() string { return e.self }

// Members returns the sorted member ids.
func (e *Engine) Members() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.members))
	for m := range e.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Stamp prepares an outgoing envelope: assigns the sender id, sequence
// number and (for Causal) the vector clock. For Total ordering the
// envelope still needs a GlobalSeq from the sequencer before delivery.
func (e *Engine) Stamp(payload []byte) Envelope {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sendSeq++
	env := Envelope{Sender: e.self, Seq: e.sendSeq, Payload: payload}
	if e.ordering == Causal {
		e.vc[e.self]++
		env.VC = e.vc.Clone()
	}
	return env
}

// Sequence assigns the next global slot; only the group's sequencer
// member calls it (Total ordering).
func (e *Engine) Sequence(env *Envelope) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seqAlloc++
	env.GlobalSeq = e.seqAlloc
}

// Receive feeds an incoming envelope and returns every envelope that
// became deliverable, in delivery order. Sends from members outside the
// group are rejected.
func (e *Engine) Receive(env Envelope) ([]Envelope, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.members[env.Sender] {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMember, env.Sender)
	}
	e.held = append(e.held, env)
	var out []Envelope
	for {
		i := e.deliverableLocked()
		if i < 0 {
			break
		}
		d := e.held[i]
		e.held = append(e.held[:i], e.held[i+1:]...)
		e.applyLocked(d)
		out = append(out, d)
	}
	return out, nil
}

// deliverableLocked finds a held envelope that may be delivered now.
func (e *Engine) deliverableLocked() int {
	for i, env := range e.held {
		switch e.ordering {
		case FIFO:
			if env.Seq == e.nextRecv[env.Sender] {
				return i
			}
		case Total:
			if env.GlobalSeq == e.nextGlobal+1 {
				return i
			}
		case Causal:
			if e.causallyReadyLocked(env) {
				return i
			}
		}
	}
	return -1
}

// causallyReadyLocked: deliverable when the envelope is the sender's next
// event and every other dependency is already reflected locally.
func (e *Engine) causallyReadyLocked(env Envelope) bool {
	for m, n := range env.VC {
		if m == env.Sender {
			if n != e.vc[m]+1 {
				return false
			}
			continue
		}
		if n > e.vc[m] {
			return false
		}
	}
	return true
}

// applyLocked updates delivery state for a delivered envelope.
func (e *Engine) applyLocked(env Envelope) {
	switch e.ordering {
	case FIFO:
		e.nextRecv[env.Sender] = env.Seq + 1
	case Total:
		e.nextGlobal = env.GlobalSeq
	case Causal:
		e.vc.Merge(env.VC)
	}
}

// numHeld returns how many envelopes are buffered awaiting predecessors.
func (e *Engine) numHeld() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.held)
}

// Envelope wire helpers: the wrapper stores these fields in briefcase
// folders; keeping the codec here keeps the two sides consistent.

// EncodeMeta renders ordering metadata as "sender|seq|gseq|vc".
func (env Envelope) EncodeMeta() string {
	return strings.Join([]string{
		env.Sender,
		strconv.FormatUint(env.Seq, 10),
		strconv.FormatUint(env.GlobalSeq, 10),
		env.VC.Encode(),
	}, "|")
}

// DecodeMeta parses EncodeMeta output into an envelope (payload not
// included).
func DecodeMeta(s string) (Envelope, error) {
	parts := strings.SplitN(s, "|", 4)
	if len(parts) != 4 || parts[0] == "" {
		return Envelope{}, fmt.Errorf("group: bad envelope meta %q", s)
	}
	seq, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return Envelope{}, fmt.Errorf("group: bad seq %q", parts[1])
	}
	gseq, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return Envelope{}, fmt.Errorf("group: bad gseq %q", parts[2])
	}
	vc, err := DecodeVC(parts[3])
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{Sender: parts[0], Seq: seq, GlobalSeq: gseq, VC: vc}, nil
}
