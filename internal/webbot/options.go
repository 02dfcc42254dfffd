package webbot

import (
	"fmt"
	"time"

	"tax/internal/cabinet"
	"tax/internal/vclock"
	"tax/internal/websim"
)

// RobotsPolicy says how a crawl treats the origin's robots.txt.
type RobotsPolicy int

const (
	// RobotsIgnore skips the robots.txt fetch entirely (the legacy
	// behavior, and the right one for crawling sites you operate).
	RobotsIgnore RobotsPolicy = iota
	// RobotsHonor fetches /robots.txt before crawling, refuses
	// disallowed URLs (journaled as wb_robots_denied), and adopts the
	// site's Crawl-delay when it exceeds the configured politeness.
	RobotsHonor
)

// config is the resolved option set behind a Robot built with New.
type config struct {
	maxDepth    int
	stable      int
	prefix      string
	workers     int
	robots      RobotsPolicy
	agent       string
	politeness  time.Duration
	recrawl     bool
	store       *cabinet.Store
	ns          string
	maxAttempts int
	clock       vclock.Clock
	err         error // first option error, surfaced by RunCtx
}

// Option configures a Robot built with New.
type Option func(*config)

// WithMaxDepth bounds the crawl depth (links below it are rejected and
// reported, like the paper's depth-constrained robot).
func WithMaxDepth(d int) Option {
	return func(c *config) {
		if d < 0 {
			c.err = fmt.Errorf("webbot: negative max depth %d", d)
			return
		}
		c.maxDepth = d
	}
}

// WithPrefix constrains the crawl to URLs with the given prefix; links
// outside it are rejected and reported for the wrapper's second pass.
func WithPrefix(p string) Option {
	return func(c *config) { c.prefix = p }
}

// WithWorkers sets the number of concurrent fetcher workers (default
// 1). Stats stay
// byte-identical to the serial crawl: workers fetch on forks with
// private clocks, and the serial replay charges the robot's clock the
// recorded costs.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.err = fmt.Errorf("webbot: need at least 1 worker, got %d", n)
			return
		}
		c.workers = n
	}
}

// WithRobotsPolicy sets how the crawl treats robots.txt (default
// RobotsIgnore).
func WithRobotsPolicy(p RobotsPolicy) Option {
	return func(c *config) { c.robots = p }
}

// WithUserAgent names the crawler for robots.txt group matching
// (default "webbot").
func WithUserAgent(agent string) Option {
	return func(c *config) { c.agent = agent }
}

// WithPoliteness spaces fetches against the same host at least d apart
// on the virtual clock. Waits are charged to worker schedules (and the
// modeled makespan), never to per-URL fetch costs, so Stats stay
// byte-identical across politeness settings.
func WithPoliteness(d time.Duration) Option {
	return func(c *config) { c.politeness = d }
}

// WithStableDepth overrides the depth beyond which the legacy robot's
// recursion was unstable (default DefaultMaxStableDepth). The staged
// crawler clamps expansion there and journals the abandoned subtree
// frontier as wb_depth_unstable events instead of aborting.
func WithStableDepth(d int) Option {
	return func(c *config) {
		if d < 0 {
			c.err = fmt.Errorf("webbot: negative stable depth %d", d)
			return
		}
		c.stable = d
	}
}

// WithFrontier backs the crawl's URL frontier with a cabinet store
// under the given key namespace (default "fr/"): enqueue, claim, and
// complete become WAL transactions, and a crashed crawl resumes
// exactly where the log ends, refetching nothing it completed.
func WithFrontier(store *cabinet.Store, namespace string) Option {
	return func(c *config) {
		c.store = store
		c.ns = namespace
	}
}

// WithRecrawl starts an incremental re-crawl cycle when the frontier
// holds a previous crawl's records: each page is revalidated with a
// cheap HEAD probe first and refetched only when its status, size, or
// age changed. Requires WithFrontier (records must have somewhere to
// live between cycles).
func WithRecrawl() Option {
	return func(c *config) { c.recrawl = true }
}

// WithRetries bounds fetch attempts per URL before the failure journal
// records it terminally (default 3).
func WithRetries(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.err = fmt.Errorf("webbot: need at least 1 attempt, got %d", n)
			return
		}
		c.maxAttempts = n
	}
}

// WithClock charges the crawl's virtual time to clock (default: a
// fresh virtual clock).
func WithClock(clock vclock.Clock) Option {
	return func(c *config) { c.clock = clock }
}

func buildConfig(opts []Option) config {
	c := config{
		maxDepth:    DefaultMaxStableDepth,
		stable:      DefaultMaxStableDepth,
		workers:     1,
		agent:       "webbot",
		ns:          "fr/",
		maxAttempts: 3,
	}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// New builds a Robot around fetcher with the staged-crawler defaults:
// depth 4, one worker, robots ignored, volatile frontier, a fresh
// virtual clock. The returned Robot is driven with RunCtx.
func New(fetcher websim.ForkableFetcher, opts ...Option) *Robot {
	r := &Robot{fetcher: fetcher, cfg: buildConfig(opts)}
	if r.cfg.clock == nil {
		r.cfg.clock = vclock.NewVirtual()
	}
	return r
}
