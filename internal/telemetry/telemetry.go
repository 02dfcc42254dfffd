// Package telemetry is the kernel's cross-cutting observability layer:
// a lock-cheap metrics registry, trace spans threaded through briefcases,
// and a bounded structured event log.
//
// The paper's entire evaluation is latency/throughput breakdowns — per-hop
// migration cost, firewall mediation overhead, meet/activate round-trips.
// This package is the measurement substrate: every kernel component
// (firewall, agent library, VMs, simnet, webbot) reports into one
// Telemetry instance, snapshot-able to JSON and queryable over the
// firewall's management interface (taxctl metrics / taxctl trace).
//
// Cost model. Telemetry is built to be near-zero-cost when disabled:
// every instrument handle (Counter, Histogram, Span, EventLog) is a no-op
// on its nil receiver, so instrumented code carries no conditionals and a
// disabled deployment pays one nil check per update. A bare registry
// (telemetry.New with zero Options) costs one atomic add per counter bump
// — cheaper than the mutex-guarded counter struct it replaced. Spans and
// the event log are opt-in via Options.
package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// Options configure a Telemetry instance.
type Options struct {
	// Host labels spans and ids minted by this instance (a host name in
	// simulations, host:port in TCP deployments).
	Host string
	// Spans enables trace-span collection.
	Spans bool
	// Events enables the structured event log.
	Events bool
}

// Telemetry bundles the three observability facilities. A nil *Telemetry
// is fully usable and disables everything: accessors return nil, and every
// instrument is nil-safe, so components take a *Telemetry and never branch.
type Telemetry struct {
	host   string
	reg    *Registry
	spans  *SpanStore
	events *EventLog
}

// New creates a Telemetry instance. The metrics registry is always on;
// spans and the event log follow Options, at their stores' default
// capacities.
func New(opts Options) *Telemetry {
	t := &Telemetry{host: opts.Host, reg: NewRegistry()}
	if opts.Spans {
		t.spans = NewSpanStore(0)
	}
	if opts.Events {
		t.events = NewEventLog(0)
	}
	return t
}

// Host returns the configured host label ("" on nil).
func (t *Telemetry) Host() string {
	if t == nil {
		return ""
	}
	return t.host
}

// Registry returns the metrics registry (nil when t is nil).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Spans returns the span store (nil when t is nil or spans are disabled).
func (t *Telemetry) Spans() *SpanStore {
	if t == nil {
		return nil
	}
	return t.spans
}

// Events returns the event log (nil when t is nil or events are disabled).
func (t *Telemetry) Events() *EventLog {
	if t == nil {
		return nil
	}
	return t.events
}

// WipeVolatile discards the retained spans and events, modelling a host
// crash losing its in-memory rings. Metrics (plain counters) survive — they
// carry no history to lose — and the id/sequence counters keep advancing so
// nothing recorded after a restart collides with what a collector already
// pulled before the crash.
func (t *Telemetry) WipeVolatile() {
	if t == nil {
		return
	}
	t.spans.Reset()
	t.events.Reset()
}

// Detailed reports whether span collection is on — instrumentation uses it
// to gate work (wall-clock reads, attribute formatting) that only matters
// when full telemetry is enabled.
func (t *Telemetry) Detailed() bool {
	return t != nil && t.spans != nil
}

// Snapshot is the complete JSON-serializable telemetry state.
type Snapshot struct {
	// Host labels the reporting instance.
	Host string `json:"host,omitempty"`
	// Time is the wall-clock moment the snapshot was taken.
	Time time.Time `json:"time"`
	// Metrics is the registry state.
	Metrics RegistrySnapshot `json:"metrics"`
	// Spans are the retained trace spans, oldest first.
	Spans []SpanRecord `json:"spans,omitempty"`
	// Events are the retained audit events, oldest first.
	Events []Event `json:"events,omitempty"`
}

// Snapshot captures the full state (zero value on nil).
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{Time: time.Now()}
	}
	return Snapshot{
		Host:    t.host,
		Time:    time.Now(),
		Metrics: t.reg.Snapshot(),
		Spans:   t.spans.Snapshot(),
		Events:  t.events.Snapshot(),
	}
}

// WriteJSON writes an indented JSON snapshot to w.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}
