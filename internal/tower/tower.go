// Package tower is the system-wide observability plane: one collector that
// merges every host's per-host telemetry (PR 1) into cross-host, virtual-
// clock-timestamped itinerary timelines, plus a bounded flight recorder
// interleaving the infrastructure activity — fault injections, crashes,
// restarts, cabinet WAL/fsync/snapshot work — that per-host telemetry
// cannot see or cannot survive.
//
// The paper's evaluation is elapsed-time breakdowns of multi-hop
// itineraries; a per-host span ring answers "what did this host do" but not
// "why did this itinerary take 612 virtual ms". The tower answers that by
// construction: spans are pushed to the collector the moment they end (so a
// host crash that wipes its volatile rings loses nothing already pushed),
// infrastructure components report journal entries stamped with the active
// trace, and Trace() merges both into one causally-ordered timeline.
//
// The package deliberately does not import core, simnet, faults or cabinet:
// those layers push into the tower through plain function hooks, keeping
// the dependency arrow pointing here (core → tower → telemetry) and the
// collector usable from any harness.
package tower

import (
	"sort"
	"sync"
	"time"

	"tax/internal/telemetry"
)

// Journal entry kinds. Audit entries are derived from firewall event-log
// appends; the rest are reported by infrastructure hooks.
const (
	// KindAudit is a firewall mediation verdict (allow/deny/park/retry/...).
	KindAudit = "audit"
	// KindFault is a fault-plan decision applied to a transfer or the
	// topology (drop, duplicate, delay, corrupt, partition, heal).
	KindFault = "fault"
	// KindCrash is a host crash: volatile state lost at this instant.
	KindCrash = "crash"
	// KindRestart is a host restart after a crash.
	KindRestart = "restart"
	// KindCabinet is durability work: WAL appends, fsync batches,
	// snapshots, recovery replays.
	KindCabinet = "cabinet"
)

// Entry is one flight-recorder record: a timestamped infrastructure moment,
// stamped with the trace/span active when it happened ("" when none).
type Entry struct {
	// Seq is the entry's position in the journal's append order (1-based).
	Seq uint64 `json:"seq"`
	// Time is the virtual time on the reporting host's clock.
	Time time.Duration `json:"time"`
	// Host is the host (or link endpoint) the entry concerns.
	Host string `json:"host,omitempty"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Name names the action within the kind ("drop", "wal_append", ...).
	Name string `json:"name"`
	// Detail is free-form context ("msg=... dup of ...", "cause=...").
	Detail string `json:"detail,omitempty"`
	// Trace and Span carry the active trace context, if any.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// spanCapacity bounds the merged span store; spans past it are discarded.
const spanCapacity = 65536

// Options configure a Collector.
type Options struct {
	// JournalCapacity bounds the flight recorder (default 16384).
	JournalCapacity int
}

// hostFeed is one attached host's telemetry and its crash history.
type hostFeed struct {
	tel      *telemetry.Telemetry
	crashes  []time.Duration // crash instants, append order
	restarts []time.Duration
}

// Collector is the system-wide trace collector and flight recorder. All
// methods are safe for concurrent use and safe on a nil receiver (the
// tower-disabled no-op), so hooks can call unconditionally.
type Collector struct {
	mu    sync.Mutex
	hosts map[string]*hostFeed
	spans []telemetry.SpanRecord // merged, at most spanCapacity, append order

	journal    []Entry // bounded ring
	jNext      int
	jTotal     uint64
	journalCap int
}

// New returns an empty collector.
func New(opts Options) *Collector {
	if opts.JournalCapacity <= 0 {
		opts.JournalCapacity = 16384
	}
	return &Collector{
		hosts:      make(map[string]*hostFeed),
		journalCap: opts.JournalCapacity,
	}
}

// Attach registers a host's telemetry with the collector and installs the
// push feeds, the collector's one input: every span commit and event append
// is delivered as it happens, so the merged view stays ahead of any crash
// that wipes the host's own rings. Attach before the telemetry records
// anything; what it recorded earlier never reaches the collector.
// Re-attaching under the same host label (a restarted host with a fresh
// Telemetry) replaces the feed and keeps the host's crash history.
func (c *Collector) Attach(tel *telemetry.Telemetry) {
	if c == nil || tel == nil {
		return
	}
	host := tel.Host()
	c.mu.Lock()
	c.feedLocked(host).tel = tel
	c.mu.Unlock()

	// Sinks run outside the ring locks (see telemetry.EventLog.SetSink), so
	// taking c.mu inside them cannot invert against a Snapshot call.
	tel.Spans().SetSink(c.ingestSpan)
	tel.Events().SetSink(func(e telemetry.Event) { c.ingestEvent(host, e) })
}

func (c *Collector) ingestSpan(r telemetry.SpanRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.spans) >= spanCapacity {
		return
	}
	c.spans = append(c.spans, r)
}

// ingestEvent merges an audit event by mirroring it into the journal, so
// the flight recorder interleaves mediation verdicts with infrastructure
// entries without a second reporting path in the firewall.
func (c *Collector) ingestEvent(host string, e telemetry.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	detail := ""
	if e.Principal != "" {
		detail = "from=" + e.Principal
	}
	if e.Target != "" {
		if detail != "" {
			detail += " "
		}
		detail += "to=" + e.Target
	}
	if e.Cause != "" {
		if detail != "" {
			detail += " "
		}
		detail += "cause=" + e.Cause
	}
	c.recordLocked(Entry{
		Time: e.Time, Host: host, Kind: KindAudit, Name: e.Type,
		Detail: detail, Trace: e.Trace, Span: e.Span,
	})
}

func (c *Collector) feedLocked(host string) *hostFeed {
	f := c.hosts[host]
	if f == nil {
		f = &hostFeed{}
		c.hosts[host] = f
	}
	return f
}

// Record appends one entry to the flight recorder. Infrastructure hooks
// (fault injector, cabinet, crash/restart wiring) call this directly.
func (c *Collector) Record(e Entry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recordLocked(e)
	switch e.Kind {
	case KindCrash:
		c.feedLocked(e.Host).crashes = append(c.feedLocked(e.Host).crashes, e.Time)
	case KindRestart:
		c.feedLocked(e.Host).restarts = append(c.feedLocked(e.Host).restarts, e.Time)
	}
}

func (c *Collector) recordLocked(e Entry) {
	c.jTotal++
	e.Seq = c.jTotal
	if len(c.journal) < c.journalCap {
		c.journal = append(c.journal, e)
	} else {
		c.journal[c.jNext] = e
		c.jNext = (c.jNext + 1) % c.journalCap
	}
}

// Counts returns the number of merged spans and journal entries ingested so
// far. Harness settle loops poll it to detect quiescence.
func (c *Collector) Counts() (spans int, journal uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans), c.jTotal
}

// Journal returns the retained flight-recorder entries, oldest first.
func (c *Collector) Journal() []Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.journal))
	out = append(out, c.journal[c.jNext:]...)
	out = append(out, c.journal[:c.jNext]...)
	return out
}

// Spans returns every merged span, in ingest order.
func (c *Collector) Spans() []telemetry.SpanRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]telemetry.SpanRecord, len(c.spans))
	copy(out, c.spans)
	return out
}

// Traces returns the distinct trace ids seen, sorted.
func (c *Collector) Traces() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	seen := make(map[string]struct{})
	for _, s := range c.spans {
		seen[s.TraceID] = struct{}{}
	}
	c.mu.Unlock()
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Hosts returns the attached host labels, sorted, plus each host's
// telemetry (for export layers that need registries).
func (c *Collector) Hosts() map[string]*telemetry.Telemetry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*telemetry.Telemetry, len(c.hosts))
	for h, f := range c.hosts {
		if f.tel != nil {
			out[h] = f.tel
		}
	}
	return out
}

// crashWindows returns, for one host, the crash instants sorted ascending
// (used by Trace to tag spans that survived only because they were pushed).
func (c *Collector) crashTimesLocked(host string) []time.Duration {
	f := c.hosts[host]
	if f == nil {
		return nil
	}
	out := make([]time.Duration, len(f.crashes))
	copy(out, f.crashes)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
