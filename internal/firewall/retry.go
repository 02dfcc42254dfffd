package firewall

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"tax/internal/briefcase"
	"tax/internal/telemetry"
)

// RetryPolicy governs how the firewall retries a failed remote forward:
// up to Attempts tries with exponential backoff starting at Backoff,
// abandoned once the next wait would cross Deadline (zero means no
// deadline). The zero value (and any Attempts <= 1) disables retrying.
//
// The policy travels in a briefcase's reserved _RETRY folder, so the
// agent that chose it keeps it across hops and the firewalls along the
// way need no per-agent configuration — the same pattern the briefcase
// uses for the wrapper stack (_WRAP) and trace context (_TRACE).
type RetryPolicy struct {
	// Attempts is the total number of send attempts (first try included).
	Attempts int
	// Backoff is the wait after the first failure; it doubles per retry.
	// The host clock pays it, so simulated deployments back off in
	// virtual time (no sleeping) while live TCP nodes really wait.
	Backoff time.Duration
	// Deadline bounds the total time from first attempt to giving up.
	Deadline time.Duration
}

// Enabled reports whether the policy asks for any retrying at all.
func (p RetryPolicy) Enabled() bool { return p.Attempts > 1 }

// Encode renders the policy in its _RETRY wire form.
func (p RetryPolicy) Encode() string {
	return strconv.Itoa(p.Attempts) + "|" +
		strconv.FormatInt(int64(p.Backoff), 10) + "|" +
		strconv.FormatInt(int64(p.Deadline), 10)
}

// ErrBadRetryPolicy is returned when a _RETRY folder does not parse.
var ErrBadRetryPolicy = errors.New("firewall: bad retry policy")

// ParseRetryPolicy is the inverse of Encode. It is strict: three fields,
// integral, non-negative — a corrupted policy must fail loudly rather
// than retry forever.
func ParseRetryPolicy(s string) (RetryPolicy, error) {
	parts := strings.Split(s, "|")
	if len(parts) != 3 {
		return RetryPolicy{}, fmt.Errorf("%w: %q: want 3 fields, got %d", ErrBadRetryPolicy, s, len(parts))
	}
	attempts, err := strconv.Atoi(parts[0])
	if err != nil {
		return RetryPolicy{}, fmt.Errorf("%w: %q: attempts: %v", ErrBadRetryPolicy, s, err)
	}
	backoff, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return RetryPolicy{}, fmt.Errorf("%w: %q: backoff: %v", ErrBadRetryPolicy, s, err)
	}
	deadline, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return RetryPolicy{}, fmt.Errorf("%w: %q: deadline: %v", ErrBadRetryPolicy, s, err)
	}
	if attempts < 0 || backoff < 0 || deadline < 0 {
		return RetryPolicy{}, fmt.Errorf("%w: %q: negative field", ErrBadRetryPolicy, s)
	}
	return RetryPolicy{
		Attempts: attempts,
		Backoff:  time.Duration(backoff),
		Deadline: time.Duration(deadline),
	}, nil
}

// SetRetryPolicy stamps the policy onto a briefcase's _RETRY folder.
func SetRetryPolicy(bc *briefcase.Briefcase, p RetryPolicy) {
	bc.SetString(briefcase.FolderSysRetry, p.Encode())
}

// RetryPolicyFrom reads a briefcase's _RETRY folder. ok is false when
// the folder is absent; err is non-nil when present but malformed.
func RetryPolicyFrom(bc *briefcase.Briefcase) (p RetryPolicy, ok bool, err error) {
	s, has := bc.GetString(briefcase.FolderSysRetry)
	if !has {
		return RetryPolicy{}, false, nil
	}
	p, err = ParseRetryPolicy(s)
	if err != nil {
		return RetryPolicy{}, true, err
	}
	return p, true, nil
}

// forwardPolicy resolves the retry policy for one remote forward: the
// briefcase's own _RETRY folder when present and well-formed, else the
// host default. A malformed folder is audited and ignored.
func (fw *Firewall) forwardPolicy(bc *briefcase.Briefcase) RetryPolicy {
	pol, has, err := RetryPolicyFrom(bc)
	if err != nil {
		fw.record(vNote, telemetry.EventError, "", "", "ignoring malformed retry policy: "+err.Error(), nil)
	}
	if !has || err != nil {
		return fw.cfg.ForwardRetry
	}
	return pol
}

// transmit is the one retrying send: every frame that leaves this host
// outside a batch queue — a forward, a relayed frame or container, a
// flushed container — goes out through it. Up to rp.Attempts tries with
// exponential backoff; the host clock pays the backoff, so virtual
// clocks advance without sleeping and real clocks really wait. It
// returns the attempts made and the last error. A transport that reports
// when the frame left (stampedSender) pre-stamps the mediation's hand-off
// with that instant.
//
// A unit with no briefcase sends bytes that are the firewall's own — a
// relayed frame or container (a delivery-private inbound buffer or a
// fresh seal), or a flushed batch container — and they pass to a
// zero-copy transport outright. An encoded briefcase's bytes may be a
// pooled buffer, so it takes the copying Send. On the simulated
// transport (stampedSender) a traced briefcase's itinerary rides out of
// band, so fault injections on the wire are journaled under the right
// trace; payload bytes, and so simulated transfer cost, are the same
// either way.
func (fw *Firewall) transmit(m *mediation, frame []byte, rp RetryPolicy, label string) (attempt int, err error) {
	var owned ownedSender
	stamped, _ := fw.cfg.Node.(stampedSender)
	trace, evTarget := "", m.addr
	if m.bc == nil {
		owned, _ = fw.cfg.Node.(ownedSender)
	} else {
		evTarget = ""
		trace, _ = m.bc.GetString(briefcase.FolderSysTrace)
	}
	backoff, start := rp.Backoff, fw.clock.Now()
	for attempt = 1; ; attempt++ {
		switch {
		case stamped != nil:
			m.at, err = stamped.SendStamped(m.addr, frame, m.bc == nil, trace, m.tsp.ID())
			m.stamped = err == nil
		case owned != nil:
			err = owned.SendOwned(m.addr, frame)
		default:
			err = fw.cfg.Node.Send(m.addr, frame)
		}
		if err == nil || attempt >= rp.Attempts {
			return attempt, err
		}
		if rp.Deadline > 0 && fw.clock.Now()-start+backoff > rp.Deadline {
			return attempt, err
		}
		fw.retrying(m, evTarget, label, attempt, rp.Attempts, err, backoff)
		fw.clock.Advance(backoff)
		backoff *= 2
	}
}

// retrying counts and audits one failed attempt. It is its own frame so
// that transmit's, which sits under every forward, stays small.
//
//go:noinline
func (fw *Firewall) retrying(m *mediation, target, label string, attempt, attempts int, err error, backoff time.Duration) {
	fw.ctr.retries.Inc()
	fw.emit(m, &outcome{typ: telemetry.EventRetry, target: target, cause: fmt.Sprintf(
		"%sattempt %d/%d failed (%v); backing off %v", label, attempt, attempts, err, backoff)})
}

// dedupWindow is the firewall's recent-frame memory for duplicate
// suppression (Config.DedupWindow): a fixed-size ring of payload hashes.
// Injected duplicates and blind retransmissions hash identically, so a
// window of recent hashes makes redelivery safe for side-effecting
// frames (an agent transfer activated twice is two agents).
type dedupWindow struct {
	mu   sync.Mutex
	seen map[uint64]int
	ring []uint64
	next int
	// onInsert, when set, journals each newly observed hash (slot, sum)
	// to the host's cabinet; it runs outside d.mu.
	onInsert func(slot int, sum uint64)
	// keys are the slots' cabinet keys, built once when the window
	// journals, and val the buffer journalDedup encodes a hash into,
	// lent to one commit at a time under jmu (the cabinet keeps a copy).
	jmu  sync.Mutex
	keys []string
	val  [8]byte
}

func newDedupWindow(size int) *dedupWindow {
	return &dedupWindow{seen: make(map[uint64]int, size), ring: make([]uint64, size)}
}

// observe records the payload and reports whether it was already in the
// window. It carries its own lock so concurrent inbound frames do not
// serialize on the registration mutex; hashing stays outside the
// critical section.
func (d *dedupWindow) observe(payload []byte) bool {
	h := fnv.New64a()
	_, _ = h.Write(payload)
	sum := h.Sum64()
	d.mu.Lock()
	if d.seen[sum] > 0 {
		d.mu.Unlock()
		return true
	}
	slot := d.insertLocked(sum)
	fn := d.onInsert
	d.mu.Unlock()
	if fn != nil {
		fn(slot, sum)
	}
	return false
}

// insertLocked places sum in the ring, evicting the slot's previous
// occupant, and returns the slot index. Callers hold d.mu.
func (d *dedupWindow) insertLocked(sum uint64) int {
	old := d.ring[d.next]
	if old != 0 {
		if d.seen[old] <= 1 {
			delete(d.seen, old)
		} else {
			d.seen[old]--
		}
	}
	slot := d.next
	d.ring[slot] = sum
	d.next = (d.next + 1) % len(d.ring)
	d.seen[sum]++
	return slot
}

// seed inserts a hash recovered from the cabinet without re-journaling
// it (RecoverDurable).
func (d *dedupWindow) seed(sum uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen[sum] > 0 {
		return
	}
	d.insertLocked(sum)
}

// reset empties the window: crash semantics — process memory is gone.
func (d *dedupWindow) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seen = make(map[uint64]int, len(d.ring))
	for i := range d.ring {
		d.ring[i] = 0
	}
	d.next = 0
}
