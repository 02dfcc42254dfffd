package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tax/internal/vclock"
)

// idCounter feeds process-unique span and trace id suffixes.
var idCounter atomic.Uint64

// NewTraceID mints a fresh trace id. The prefix (typically a host name)
// keeps ids from different processes distinct in a TCP deployment. The
// suffix is fixed-width: ids ride inside briefcase folders, so in the
// simulated network their length feeds the payload-size → transfer-time
// model — variable-width ids would make virtual timings depend on how many
// ids the process happened to mint before, breaking seeded determinism.
func NewTraceID(prefix string) string {
	return fmt.Sprintf("t:%s:%016x", prefix, idCounter.Add(1))
}

func newSpanID(prefix string) string {
	return fmt.Sprintf("s:%s:%016x", prefix, idCounter.Add(1))
}

// SpanRecord is one finished span: a named interval on a host's virtual
// clock, linked into a trace tree by parent span id. A whole itinerary —
// agent hops, firewall mediations, VM activations — renders as one tree
// under a single trace id.
type SpanRecord struct {
	// Seq is the record's position in its store's append order (1-based),
	// stamped when the span ends. See Event.Seq for why: it makes ring
	// wraparound observable and lets collectors deduplicate by (host, seq).
	Seq     uint64 `json:"seq"`
	TraceID string `json:"trace"`
	SpanID  string `json:"span"`
	// Parent is the parent span id; empty marks a trace root.
	Parent string `json:"parent,omitempty"`
	// Name labels the operation ("agent.go", "fw.send", "vm.exec", ...).
	Name string `json:"name"`
	// Host is the host the span was recorded on.
	Host string `json:"host,omitempty"`
	// Start and End are virtual times on the recording host's clock.
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
	// Attrs are flattened key/value pairs (target URIs, byte counts, ...).
	Attrs []string `json:"attrs,omitempty"`
	// Err records a failure outcome ("" on success).
	Err string `json:"err,omitempty"`
}

// Span is a live, not-yet-finished span handle. A nil Span is the disabled
// no-op: every method is safe and ID returns "".
type Span struct {
	store *SpanStore
	clock vclock.Clock
	rec   SpanRecord
}

// ID returns the span's id ("" on nil), used as the parent of child spans
// and carried in briefcases as the trace-context folder.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.rec.SpanID
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, k, v)
}

// SetErr records a failure outcome.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.rec.Err = err.Error()
}

// End stamps the end time from the span's clock and commits the record to
// the store. End is idempotent in effect only through caller discipline:
// call it exactly once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.clock.Now())
}

// EndAt is End at a given instant on the span's clock: for an operation
// that finished when its unit was handed off, which later deliveries to
// the host may have moved the clock past by the time the caller returns.
func (s *Span) EndAt(at time.Duration) {
	if s == nil {
		return
	}
	s.rec.End = at
	s.store.add(s.rec)
}

// SpanStore collects finished spans in a bounded ring: the newest Cap
// spans are kept, older ones are overwritten (the store is a flight
// recorder, not an archive). A nil store disables span collection.
type SpanStore struct {
	mu    sync.Mutex
	buf   []SpanRecord
	next  int
	total uint64
	sink  func(SpanRecord)
}

// SetSink installs fn, called once per committed span after its Seq is
// stamped. The call happens outside the store's lock (see EventLog.SetSink
// for the ordering caveat). The tower collector uses this as its
// push-on-span-end feed, so spans reach the system-wide view even if the
// recording host later crashes and wipes its volatile ring.
func (st *SpanStore) SetSink(fn func(SpanRecord)) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.sink = fn
	st.mu.Unlock()
}

// NewSpanStore returns a store keeping the newest cap spans (default 4096
// when cap <= 0).
func NewSpanStore(capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = 4096
	}
	return &SpanStore{buf: make([]SpanRecord, 0, capacity)}
}

// Start opens a span at clock.Now(). Returns nil (the no-op span) on a nil
// store, so callers need no disabled-path branching.
func (st *SpanStore) Start(clock vclock.Clock, host, traceID, parent, name string) *Span {
	if st == nil || traceID == "" {
		return nil
	}
	return &Span{
		store: st,
		clock: clock,
		rec: SpanRecord{
			TraceID: traceID,
			SpanID:  newSpanID(host),
			Parent:  parent,
			Name:    name,
			Host:    host,
			Start:   clock.Now(),
		},
	}
}

func (st *SpanStore) add(rec SpanRecord) {
	st.mu.Lock()
	st.total++
	rec.Seq = st.total
	if len(st.buf) < cap(st.buf) {
		st.buf = append(st.buf, rec)
	} else {
		st.buf[st.next] = rec
		st.next = (st.next + 1) % cap(st.buf)
	}
	sink := st.sink
	st.mu.Unlock()
	if sink != nil {
		sink(rec)
	}
}

// Total returns the number of spans ever recorded (including overwritten
// ones); 0 on nil.
func (st *SpanStore) Total() uint64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
}

// Snapshot returns the retained spans, oldest first.
func (st *SpanStore) Snapshot() []SpanRecord {
	s, _ := st.snapshotTotal()
	return s
}

// snapshotTotal returns the retained spans (oldest first) together with the
// total ever recorded, read under one lock so the pair is consistent even
// mid-wrap under concurrent appends.
func (st *SpanStore) snapshotTotal() ([]SpanRecord, uint64) {
	if st == nil {
		return nil, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SpanRecord, 0, len(st.buf))
	out = append(out, st.buf[st.next:]...)
	out = append(out, st.buf[:st.next]...)
	return out, st.total
}

// Reset discards the retained spans (a crashed host's volatile ring). The
// sequence counter keeps advancing so post-crash spans never reuse a
// pre-crash Seq.
func (st *SpanStore) Reset() {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.buf = st.buf[:0]
	st.next = 0
}

// ForTrace returns the retained spans of one trace, oldest first.
func (st *SpanStore) ForTrace(traceID string) []SpanRecord {
	var out []SpanRecord
	for _, r := range st.Snapshot() {
		if r.TraceID == traceID {
			out = append(out, r)
		}
	}
	return out
}
