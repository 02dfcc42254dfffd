package webbot

import "strings"

// Reason is a Gate's verdict on one link: ReasonOK, or why the crawl
// does not fetch it. A rejecting reason is the LinkReport.Reason the
// replay logs for the link.
type Reason string

// The verdicts, in the order Verdict checks them.
const (
	// ReasonOK: the crawl fetches the link.
	ReasonOK Reason = "ok"
	// ReasonPrefix: the link is outside the crawl's URI prefix (the
	// outward links the case study's second pass validates).
	ReasonPrefix Reason = "prefix"
	// ReasonRobots: the site's robots.txt disallows the link for the
	// crawl's user agent.
	ReasonRobots Reason = "robots"
	// ReasonDepth: the link is deeper than the max depth.
	ReasonDepth Reason = "depth"
	// ReasonUnstable: the link is within the max depth but beyond the
	// stable depth, where the legacy robot's recursion failed. The
	// crawl clamps there and journals the subtree as wb_depth_unstable.
	ReasonUnstable Reason = "unstable"
)

// Gate is the one place a crawl decides what to fetch. It is built once
// per crawl from the resolved options and the site's robots rules, and
// every admission asks it: the acquisition workers' frontier admit, the
// canonical replay's rejected-link log, and a fleet's ag_frontier.
type Gate struct {
	prefix   string
	robots   *robotsGroup // the rules for the crawl's user agent (nil: none)
	maxDepth int
	stable   int
}

func newGate(cfg *config, rules *Robots) *Gate {
	return &Gate{
		prefix:   cfg.prefix,
		robots:   rules.group(cfg.agent),
		maxDepth: cfg.maxDepth,
		stable:   cfg.stable,
	}
}

// NewGate builds the gate a robot configured by opts crawls behind,
// with the given robots.txt rules (nil: none).
func NewGate(rules *Robots, opts ...Option) (*Gate, error) {
	cfg := buildConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	return newGate(&cfg, rules), nil
}

// Verdict decides a link found at depth. It checks the prefix, then
// robots.txt, then the max depth, then the stable depth, and returns
// the first that rejects, or ReasonOK.
func (g *Gate) Verdict(url string, depth int) Reason {
	switch {
	case g.prefix != "" && !strings.HasPrefix(url, g.prefix):
		return ReasonPrefix
	case !g.robots.allowed(urlPath(url)):
		return ReasonRobots
	case depth > g.maxDepth:
		return ReasonDepth
	case depth > g.stable:
		return ReasonUnstable
	}
	return ReasonOK
}
