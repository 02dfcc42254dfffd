// The hot-reloadable evaluation engine.
//
// An Engine holds one immutable compiled ruleset behind an atomic
// pointer: Eval and Charge load it once and never lock, Install swaps it
// whole. There is no partially-applied window — a mediation sees either
// the old ruleset or the new one, never a mix — and a ruleset that fails
// to parse is never installed, so a bad reload leaves the old rules
// fully in effect.
//
// Quota state lives outside the ruleset in 64 lock-striped bucket
// shards keyed by principal, so thousands of tenants charge concurrently
// without serializing and a reload does not lose or reset unrelated
// principals' standing. Buckets hold integer token counts in nano-units
// (1 message = 1e9 nano-messages; rate msgs/sec == rate nano-msgs/ns),
// so refill arithmetic is exact on the virtual clock and allocation
// free. Steady-state Eval and Charge perform zero allocations; a bucket
// allocates once, the first time its principal is seen.
package policy

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tax/internal/uri"
	"tax/internal/vclock"
)

// Verdict is one evaluation result: the effect and the id of the rule
// that produced it. Rule ids are "p<version>.<label>" for labelled
// rules, "p<version>.r<index>" for unlabelled ones, "p<version>.default"
// for the fall-through, and "p<version>.q<index>" / "p<version>.quota"
// for quota denials — stable text that audit rings and explain
// timelines can carry without leaking raw identifiers.
type Verdict struct {
	Effect Effect
	RuleID string
}

// nano is the token scale: one message (or byte) of quota is nano
// token units, making rate msgs/sec identical to rate nano-msgs/ns.
const nano = int64(time.Second)

// bucketShards stripes the per-principal quota state; 64 shards keep
// thousands of concurrently charging tenants off each other's locks.
const bucketShards = 64

// compiled is one installed ruleset with its precomputed verdict ids
// and the candidate index Eval consults. The index hangs off the
// compiled ruleset, so Install invalidates it by construction: a new
// ruleset starts with an empty one.
type compiled struct {
	version  uint64
	rs       *Ruleset
	ruleIDs  []string
	quotaIDs []string
	defID    string
	defQID   string
	index    *candidateIndex // nil for a ruleset without rules
}

const (
	// indexPrincipals bounds the candidate index. There is no eviction:
	// the first indexPrincipals principals a ruleset sees keep their
	// entries until the next Install, and later ones are evaluated by the
	// plain linear walk.
	indexPrincipals = 1024
	// indexSlots is the open-addressed table's size, twice the entries it
	// can hold so probe runs stay short.
	indexSlots = 2 * indexPrincipals
	// inlineCandidates is how many candidate rules an entry names; a
	// principal matching more is walked linearly from the last of them.
	inlineCandidates = 8
)

// candidates is one principal's share of a ruleset: the first rules
// whose principal glob matches it, in rule order, and the index from
// which Eval must resume the linear walk (len(Rules) when the list is
// complete). Immutable once published.
type candidates struct {
	principal string
	n         uint8
	rules     [inlineCandidates]uint16 // MaxRules fits
	resume    uint16
}

// candidateIndex maps principal -> candidates without locks and without
// allocating: entries live in a slab sized at Install, a writer claims
// the next one, fills it, and publishes its number into an empty slot by
// compare-and-swap; readers load slots atomically and only ever see
// finished entries. A writer that loses the race for a principal wastes
// its entry, which only brings the bound forward.
type candidateIndex struct {
	slots   []atomic.Uint32 // 0 = empty, else 1 + the entry's slab position
	entries []candidates
	claimed atomic.Uint32
}

func newCandidateIndex() *candidateIndex {
	return &candidateIndex{
		slots:   make([]atomic.Uint32, indexSlots),
		entries: make([]candidates, indexPrincipals),
	}
}

// lookup returns the principal's candidates, computing and publishing
// them on first sight; nil once the index is full, or when there is no
// index because there are no rules.
func (x *candidateIndex) lookup(rules []Rule, principal string) *candidates {
	if x == nil {
		return nil
	}
	slot := hash32(principal) & (indexSlots - 1)
	for ; ; slot = (slot + 1) & (indexSlots - 1) {
		at := x.slots[slot].Load()
		if at == 0 {
			break
		}
		if c := &x.entries[at-1]; c.principal == principal {
			return c
		}
	}
	// Full is checked before claiming, so a full index is never written
	// again: the count overshoots by at most the writers racing here.
	if x.claimed.Load() >= indexPrincipals {
		return nil
	}
	at := x.claimed.Add(1)
	if at > indexPrincipals {
		return nil
	}
	c := &x.entries[at-1]
	c.principal, c.resume = principal, uint16(len(rules))
	for i := range rules {
		if !uri.MatchGlob(rules[i].Principal, principal) {
			continue
		}
		if c.n == inlineCandidates {
			c.resume = uint16(i)
			break
		}
		c.rules[c.n] = uint16(i)
		c.n++
	}
	for ; ; slot = (slot + 1) & (indexSlots - 1) {
		if x.slots[slot].CompareAndSwap(0, at) {
			return c
		}
		if other := &x.entries[x.slots[slot].Load()-1]; other.principal == principal {
			return other
		}
	}
}

// bucket is one principal's token state. Guarded by its shard's lock.
type bucket struct {
	version uint64 // compiled version the limits were resolved against
	quotaID string
	rate    int64 // nano-msgs per ns (== msgs/sec); 0 = unlimited
	cap_    int64 // nano-msgs capacity
	brate   int64 // nano-bytes per ns; 0 = unlimited
	bcap    int64 // nano-bytes capacity
	last    time.Duration
	tok     int64
	btok    int64
}

type bucketShard struct {
	mu sync.Mutex
	m  map[string]*bucket
}

// Engine evaluates rulesets and charges quotas. Create with New; all
// methods are safe for concurrent use.
type Engine struct {
	clock    vclock.Clock
	defQuota Quota
	version  atomic.Uint64
	cur      atomic.Pointer[compiled]
	shards   [bucketShards]bucketShard
}

// New creates an engine on the given clock, installs rs as version 1,
// and sets the default quota applied to principals no quota line
// matches (the zero Quota is unlimited). A nil rs installs the empty
// default-deny ruleset.
func New(clock vclock.Clock, rs *Ruleset, defQuota Quota) *Engine {
	e := &Engine{clock: clock, defQuota: defQuota}
	for i := range e.shards {
		e.shards[i].m = make(map[string]*bucket)
	}
	if rs == nil {
		rs = &Ruleset{}
	}
	e.Install(rs)
	return e
}

// Install atomically replaces the active ruleset and returns the new
// version number. In-flight evaluations finish against the ruleset they
// loaded; later ones see the new one whole.
func (e *Engine) Install(rs *Ruleset) uint64 {
	v := e.version.Add(1)
	c := &compiled{
		version: v,
		rs:      rs,
		defID:   fmt.Sprintf("p%d.default", v),
		defQID:  fmt.Sprintf("p%d.quota", v),
	}
	c.ruleIDs = make([]string, len(rs.Rules))
	for i, r := range rs.Rules {
		if r.Label != "" {
			c.ruleIDs[i] = fmt.Sprintf("p%d.%s", v, r.Label)
		} else {
			c.ruleIDs[i] = fmt.Sprintf("p%d.r%d", v, i)
		}
	}
	c.quotaIDs = make([]string, len(rs.Quotas))
	for i, q := range rs.Quotas {
		if q.Label != "" {
			c.quotaIDs[i] = fmt.Sprintf("p%d.%s", v, q.Label)
		} else {
			c.quotaIDs[i] = fmt.Sprintf("p%d.q%d", v, i)
		}
	}
	if len(rs.Rules) > 0 {
		c.index = newCandidateIndex()
	}
	e.cur.Store(c)
	return v
}

// Version returns the active ruleset's version number.
func (e *Engine) Version() uint64 { return e.cur.Load().version }

// Eval returns the verdict for one mediation: first matching rule wins,
// otherwise the ruleset default. op is OpSend, OpTransfer or OpMgmt.
// Eval performs no allocation.
//
// A principal the index knows is judged on its candidates alone — the
// rules whose principal glob matches it, found once per ruleset — and
// then, if it has more than an entry holds, on the rest of the rules
// from where the candidates stop. A principal the index has no room for
// takes that linear walk from the top.
func (e *Engine) Eval(principal, op string, target uri.URI) Verdict {
	c := e.cur.Load()
	rules := c.rs.Rules
	from := 0
	if cand := c.index.lookup(rules, principal); cand != nil {
		for _, i := range cand.rules[:cand.n] {
			if r := &rules[i]; (r.Op == OpAny || r.Op == op) && r.Target.Match(target) {
				return Verdict{r.Effect, c.ruleIDs[i]}
			}
		}
		from = int(cand.resume)
	}
	for i := from; i < len(rules); i++ {
		r := &rules[i]
		if (r.Op == OpAny || r.Op == op) && uri.MatchGlob(r.Principal, principal) && r.Target.Match(target) {
			return Verdict{r.Effect, c.ruleIDs[i]}
		}
	}
	return Verdict{c.rs.Default, c.defID}
}

// Charge debits one message and the given byte count from the
// principal's token buckets. ok reports whether the budget covered it;
// on false nothing is debited and ruleID names the quota that refused.
// Principals whose quota is unlimited pass through with ruleID "".
// Steady-state Charge performs no allocation (the bucket itself is
// allocated the first time a principal is seen).
func (e *Engine) Charge(principal string, bytes int64) (ruleID string, ok bool) {
	c := e.cur.Load()
	sh := &e.shards[shardOf(principal)]
	sh.mu.Lock()
	b := sh.m[principal]
	if b == nil {
		b = &bucket{version: ^uint64(0)}
		sh.m[principal] = b
	}
	if b.version != c.version {
		e.resolve(c, principal, b)
	}
	if b.rate == 0 && b.brate == 0 {
		sh.mu.Unlock()
		return "", true
	}
	now := e.clock.Now()
	if dt := now - b.last; dt > 0 {
		b.tok = refill(b.tok, b.cap_, b.rate, int64(dt))
		b.btok = refill(b.btok, b.bcap, b.brate, int64(dt))
		b.last = now
	}
	needB := bytes * nano
	if b.rate > 0 && b.tok < nano || b.brate > 0 && b.btok < needB {
		id := b.quotaID
		sh.mu.Unlock()
		return id, false
	}
	if b.rate > 0 {
		b.tok -= nano
	}
	if b.brate > 0 {
		b.btok -= needB
	}
	id := b.quotaID
	sh.mu.Unlock()
	return id, true
}

// resolve binds a bucket to the quota line matching its principal under
// the compiled ruleset c (first match wins, engine default otherwise)
// and refills it: a reload is an administrative act that restarts rate
// limiting from a full bucket. Caller holds the shard lock.
func (e *Engine) resolve(c *compiled, principal string, b *bucket) {
	q := e.defQuota
	id := c.defQID
	for i := range c.rs.Quotas {
		if uri.MatchGlob(c.rs.Quotas[i].Principal, principal) {
			q = c.rs.Quotas[i]
			id = c.quotaIDs[i]
			break
		}
	}
	if q.Burst == 0 {
		q.Burst = q.Rate
	}
	if q.ByteBurst == 0 {
		q.ByteBurst = q.Bytes
	}
	b.version = c.version
	b.quotaID = id
	b.rate, b.brate = q.Rate, q.Bytes
	b.cap_, b.bcap = q.Burst*nano, q.ByteBurst*nano
	b.tok, b.btok = b.cap_, b.bcap
	b.last = e.clock.Now()
}

// refill advances one token count by rate tokens/ns over dt ns, capped.
// The guard against dt*rate overflow compares dt with the headroom
// first; rate and cap are bounded by MaxRate (engine invariants), so
// the multiply below never wraps.
func refill(tok, cap_, rate, dt int64) int64 {
	if rate == 0 || tok >= cap_ {
		return tok
	}
	if dt >= (cap_-tok)/rate {
		return cap_
	}
	return tok + rate*dt
}

// Principals returns the number of principals with live quota buckets —
// the engine's active-tenant count.
func (e *Engine) Principals() int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Describe renders the active ruleset as stable '|'-separated rows for
// the management plane: a version row, a default row, one row per rule
// and per quota, each leading with its verdict id.
func (e *Engine) Describe() []string {
	c := e.cur.Load()
	rows := make([]string, 0, 2+len(c.rs.Rules)+len(c.rs.Quotas))
	rows = append(rows, "version|"+strconv.FormatUint(c.version, 10))
	rows = append(rows, c.defID+"|default|"+c.rs.Default.String())
	for i, r := range c.rs.Rules {
		rows = append(rows, strings.Join([]string{
			c.ruleIDs[i], r.Effect.String(), r.Principal, r.Op, r.Target.String(),
		}, "|"))
	}
	for i, q := range c.rs.Quotas {
		rows = append(rows, strings.Join([]string{
			c.quotaIDs[i], "quota", q.Principal,
			"rate=" + strconv.FormatInt(q.Rate, 10),
			"burst=" + strconv.FormatInt(q.Burst, 10),
			"bytes=" + strconv.FormatInt(q.Bytes, 10),
			"bytesburst=" + strconv.FormatInt(q.ByteBurst, 10),
		}, "|"))
	}
	return rows
}

// shardOf maps a principal to its bucket stripe.
func shardOf(s string) uint32 { return hash32(s) & (bucketShards - 1) }

// hash32 is inline FNV-1a; the hash/fnv package would allocate on these
// paths.
func hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
