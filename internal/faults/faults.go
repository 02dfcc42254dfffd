// Package faults turns the simulated network into a deterministic chaos
// testbed: a seeded Plan decides, on every inter-host transfer, whether
// the message is dropped, duplicated, delayed or corrupted, and applies
// scheduled host crashes, restarts, partitions and heals as virtual time
// passes — same seed, same failure sequence, no sleeps.
//
// Determinism under concurrency is the design constraint. Transfers from
// different hosts race in real time, so a single shared RNG would make
// the fault sequence depend on goroutine interleaving. The Plan instead
// derives one RNG per directed host pair (seeded from the plan seed and
// the pair's names) and consumes a fixed number of draws per decision,
// so each pair sees an identical fault sequence on every run regardless
// of how the pairs interleave globally.
package faults

import (
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"tax/internal/simnet"
)

// Config parameterizes a fault plan. Probabilities are per transfer in
// [0, 1]; zero disables the corresponding fault class.
type Config struct {
	// Seed feeds every per-pair RNG; the same seed reproduces the same
	// per-pair fault sequence.
	Seed int64
	// Drop is the probability a transfer is lost in flight.
	Drop float64
	// Duplicate is the probability a delivered transfer arrives twice.
	Duplicate float64
	// Delay is the probability a delivered transfer is jittered.
	Delay float64
	// MaxDelay bounds the injected jitter; default 2ms when Delay > 0.
	MaxDelay time.Duration
	// Corrupt is the probability a delivered transfer's payload is
	// damaged in flight.
	Corrupt float64
}

// Scheduled fault operations.
const (
	// OpCrash takes a host's transport down (simnet.Crash).
	OpCrash = "crash"
	// OpRestart brings a crashed host back (simnet.Restart).
	OpRestart = "restart"
	// OpPartition cuts a host pair (simnet.Partition).
	OpPartition = "partition"
	// OpHeal restores a cut pair (simnet.Heal).
	OpHeal = "heal"
)

// Event is one scheduled fault: at virtual time At, apply Op to host A
// (and B for pair operations). Events fire lazily — when the first
// transfer decision observes a sender clock at or past At — which is the
// only notion of "now" a virtual-time simulation has.
type Event struct {
	At time.Duration `json:"at"`
	Op string        `json:"op"`
	A  string        `json:"a"`
	B  string        `json:"b,omitempty"`
}

// Record is one fault the plan injected, for the deterministic log: the
// Seq-th decision on the From→To pair at virtual time At took Action.
// Pass-through decisions are not recorded.
type Record struct {
	From   string        `json:"from"`
	To     string        `json:"to"`
	Seq    int           `json:"seq"`
	At     time.Duration `json:"at"`
	Action string        `json:"action"`
	Delay  time.Duration `json:"delay,omitempty"`
}

type pairState struct {
	rng *rand.Rand
	seq int
}

// Plan is a deterministic fault injector. Create with New, attach with
// Bind, and read the injected-fault log with Log/LogJSON afterwards.
type Plan struct {
	cfg Config

	mu       sync.Mutex
	net      *simnet.Network
	pairs    map[[2]string]*pairState
	events   []Event // sorted by At, stable
	nextEv   int
	applied  []Event
	records  []Record
	applyObs func(Event)
}

var _ simnet.Injector = (*Plan)(nil)

// New creates a plan from the config.
func New(cfg Config) *Plan {
	if cfg.Delay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	return &Plan{cfg: cfg, pairs: make(map[[2]string]*pairState)}
}

// Schedule adds fault events to the plan (before or after Bind).
func (p *Plan) Schedule(evs ...Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events = append(p.events, evs...)
	rest := p.events[p.nextEv:]
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].At < rest[j].At })
}

// Bind attaches the plan to the network as its fault injector.
func (p *Plan) Bind(net *simnet.Network) {
	p.mu.Lock()
	p.net = net
	p.mu.Unlock()
	net.SetInjector(p)
}

// Decide implements simnet.Injector. It first applies scheduled events
// due at or before the observed virtual time, then draws this pair's
// next decision. Exactly five draws are consumed per call whatever the
// outcome, keeping each pair's sequence aligned across runs.
func (p *Plan) Decide(from, to string, now time.Duration, size int) simnet.Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyDueLocked(now)

	key := [2]string{from, to}
	ps := p.pairs[key]
	if ps == nil {
		ps = &pairState{rng: rand.New(rand.NewSource(pairSeed(p.cfg.Seed, from, to)))}
		p.pairs[key] = ps
	}
	ps.seq++
	fDrop := ps.rng.Float64()
	fDup := ps.rng.Float64()
	fDelay := ps.rng.Float64()
	fCorrupt := ps.rng.Float64()
	jitter := time.Duration(ps.rng.Int63())
	if p.cfg.MaxDelay > 0 {
		jitter %= p.cfg.MaxDelay + 1
	}

	var d simnet.Decision
	rec := func(action string, delay time.Duration) {
		p.records = append(p.records, Record{
			From: from, To: to, Seq: ps.seq, At: now, Action: action, Delay: delay,
		})
	}
	if fDrop < p.cfg.Drop {
		d.Drop = true
		rec("drop", 0)
		return d
	}
	if fDup < p.cfg.Duplicate {
		d.Duplicate = true
		rec("dup", 0)
	}
	if fDelay < p.cfg.Delay {
		d.Delay = jitter
		rec("delay", jitter)
	}
	if fCorrupt < p.cfg.Corrupt {
		d.Corrupt = true
		rec("corrupt", 0)
	}
	return d
}

// SetApplyObserver installs fn, called once per scheduled event as it
// fires (after the network call that applied it). It runs while p.mu is
// held, so fn must be quick and must not call back into the plan; an
// observability plane uses it to journal topology events (partition/heal
// — crash/restart reach the journal through the network's own hooks, so
// observers typically skip those to avoid double entries).
func (p *Plan) SetApplyObserver(fn func(Event)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyObs = fn
}

// applyDueLocked fires scheduled events whose time has come. Callers
// hold p.mu; the network lock is taken by the calls below, never the
// other way around.
func (p *Plan) applyDueLocked(now time.Duration) {
	for p.nextEv < len(p.events) && p.events[p.nextEv].At <= now {
		ev := p.events[p.nextEv]
		p.nextEv++
		if p.net == nil {
			continue
		}
		switch ev.Op {
		case OpCrash:
			p.net.Crash(ev.A)
		case OpRestart:
			p.net.Restart(ev.A)
		case OpPartition:
			p.net.Partition(ev.A, ev.B)
		case OpHeal:
			p.net.Heal(ev.A, ev.B)
		}
		p.applied = append(p.applied, ev)
		if p.applyObs != nil {
			p.applyObs(ev)
		}
	}
}

// Log returns the injected-fault records in canonical order — by pair,
// then per-pair sequence — which is identical across runs of the same
// seed even though the pairs' real-time interleaving is not.
func (p *Plan) Log() []Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]Record(nil), p.records...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Applied returns the scheduled events that have fired, in firing order.
func (p *Plan) Applied() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.applied...)
}

// LogJSON renders the canonical log (records plus applied events) as
// deterministic JSON: byte-identical across runs with the same seed and
// traffic, the chaos suite's reproducibility check.
func (p *Plan) LogJSON() ([]byte, error) {
	doc := struct {
		Seed    int64    `json:"seed"`
		Applied []Event  `json:"applied"`
		Records []Record `json:"records"`
	}{Seed: p.cfg.Seed, Applied: p.Applied(), Records: p.Log()}
	if doc.Applied == nil {
		doc.Applied = []Event{}
	}
	if doc.Records == nil {
		doc.Records = []Record{}
	}
	return json.MarshalIndent(doc, "", "  ")
}

// pairSeed derives a per-directed-pair seed from the plan seed.
func pairSeed(seed int64, from, to string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(from))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(to))
	return seed ^ int64(h.Sum64())
}
