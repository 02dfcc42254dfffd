package frontier

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Limiter enforces a per-site politeness delay on the virtual clock:
// two fetches against the same host start at least Delay apart,
// whichever workers issue them. Reserve hands back how long the caller
// must advance its clock before fetching — the wait is charged to the
// worker's clock, never folded into the recorded fetch cost, so
// politeness shapes the modeled schedule without perturbing the
// deterministic per-URL costs.
type Limiter struct {
	mu    sync.Mutex
	delay time.Duration
	next  map[string]time.Duration // host → earliest next fetch start (virtual)
}

// NewLimiter returns a limiter with the given per-site delay; a zero
// or negative delay disables waiting.
func NewLimiter(delay time.Duration) *Limiter {
	return &Limiter{delay: delay, next: make(map[string]time.Duration)}
}

// Reserve books a fetch slot against host for a worker whose virtual
// clock reads now, returning the wait the worker owes before fetching.
func (l *Limiter) Reserve(host string, now time.Duration) time.Duration {
	if l == nil || l.delay <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	start := now
	if nxt, ok := l.next[host]; ok && nxt > start {
		start = nxt
	}
	l.next[host] = start + l.delay
	return start - now
}

// HostOf extracts the host part of a URL ("http://host/path" → "host").
// URLs without a scheme separator hash as themselves.
func HostOf(url string) string {
	rest := url
	if i := strings.Index(url, "://"); i >= 0 {
		rest = url[i+3:]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// ModelMakespan computes the virtual-clock makespan of fetching every
// record with the given worker count and per-site politeness delay:
// records are list-scheduled (Schedule) in canonical (depth, URL) order,
// each paying its recorded FetchCost. A pure function of the record set,
// so reruns are byte-identical — this is the schedule model behind
// BENCH_frontier's workers × politeness grid.
func ModelMakespan(recs []*PageRecord, workers int, delay time.Duration) time.Duration {
	order := make([]*PageRecord, len(recs))
	copy(order, recs)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Depth != order[j].Depth {
			return order[i].Depth < order[j].Depth
		}
		return order[i].URL < order[j].URL
	})
	costs := make([]time.Duration, len(order))
	hosts := make([]string, len(order))
	for i, r := range order {
		costs[i], hosts[i] = r.FetchCost, HostOf(r.URL)
	}
	return Schedule(costs, hosts, workers, delay)
}

// Schedule list-schedules jobs, in order, onto workers: each to the
// least-loaded worker, the first of equals, starting no earlier than its
// host's politeness slot (starts on one host at least delay apart; hosts
// may be nil when delay ≤ 0), and returns the time the last job ends.
func Schedule(costs []time.Duration, hosts []string, workers int, delay time.Duration) time.Duration {
	free := make([]time.Duration, max(workers, 1)) // per-worker next-free time
	next := make(map[string]time.Duration)         // per-host politeness slot
	var makespan time.Duration
	for i, cost := range costs {
		w := 0
		for j := range free {
			if free[j] < free[w] {
				w = j
			}
		}
		start := free[w]
		if delay > 0 {
			if nxt, ok := next[hosts[i]]; ok && nxt > start {
				start = nxt
			}
			next[hosts[i]] = start + delay
		}
		free[w] = start + cost
		makespan = max(makespan, free[w])
	}
	return makespan
}
