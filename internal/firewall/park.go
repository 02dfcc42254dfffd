// The lock-striped park table.
//
// Parked messages used to live in a single slice guarded by the
// firewall's registration mutex, which serialized every mediation that
// touched the queue. The table is now striped: each parked message
// lands in the stripe hashed from its target agent name, so concurrent
// mediations for unrelated receivers touch disjoint locks. Mediation
// POLICY is unchanged — every message still passes the same match rule
// under the same single per-host reference monitor; only the mechanism
// (which lock protects which queue entry) is sharded. Name-less targets
// hash to the empty-name stripe; a registration flush therefore scans
// exactly two stripes: the stripe of its own name and the empty-name
// (wildcard-target) stripe.
package firewall

import (
	"hash/fnv"
	"strconv"
	"sync"

	"tax/internal/telemetry"
)

// parkShards is the number of lock stripes in the park table. Small
// powers of two are plenty: the table is contended by mediation paths,
// not sized by parked-message volume.
const parkShards = 8

// parkShard is one stripe: a lock, its queue slice, and a gauge
// mirroring the stripe's depth.
type parkShard struct {
	mu      sync.Mutex
	pending []*pendingMsg
	gauge   *telemetry.Gauge
}

// parkTable is the striped store of parked messages.
type parkTable struct {
	shards [parkShards]parkShard
	// total mirrors the table-wide depth into the registry under the
	// pre-sharding gauge name, so existing dashboards and tests keep
	// reading one number.
	total *telemetry.Gauge
}

func newParkTable(reg *telemetry.Registry, host string) *parkTable {
	t := &parkTable{total: reg.Gauge("fw.pending", "host", host)}
	for i := range t.shards {
		t.shards[i].gauge = reg.Gauge("fw.pending_shard",
			"host", host, "shard", strconv.Itoa(i))
	}
	return t
}

// shardFor maps a target agent name to its stripe index.
func shardFor(name string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % parkShards)
}

// add inserts a parked message into its target name's stripe.
func (t *parkTable) add(p *pendingMsg) {
	s := &t.shards[shardFor(p.target.Name)]
	s.mu.Lock()
	s.pending = append(s.pending, p)
	s.gauge.Set(int64(len(s.pending)))
	s.mu.Unlock()
	t.total.Add(1)
}

// take removes and returns the parked messages match accepts, scanning
// only the stripes that can hold messages for the given target names
// (every stripe when none are given). Stripe locks arbitrate concurrent
// takers: a message goes to exactly one of a registration flush, a
// policy reload, its expiry timer and Close.
func (t *parkTable) take(match func(*pendingMsg) bool, names ...string) []*pendingMsg {
	var scan [parkShards]bool
	for _, n := range names {
		scan[shardFor(n)] = true
	}
	var out []*pendingMsg
	for i := range t.shards {
		if len(names) > 0 && !scan[i] {
			continue
		}
		s := &t.shards[i]
		s.mu.Lock()
		rest := s.pending[:0]
		for _, p := range s.pending {
			if match(p) {
				out = append(out, p)
			} else {
				rest = append(rest, p)
			}
		}
		s.pending = rest
		s.gauge.Set(int64(len(rest)))
		s.mu.Unlock()
	}
	t.total.Add(int64(-len(out)))
	return out
}

// size is the table-wide parked-message count.
func (t *parkTable) size() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.pending)
		s.mu.Unlock()
	}
	return n
}
