// Package webbot reproduces the W3C Webbot-style stationary robot of §5
// — rebuilt (PR 10) as a staged crawler.
//
// "A robot can start with one or more reference pages and traverse all
// links in some orderly manner, gathering statistics." The seed's
// recursive depth-first crawl survives as the *canonical replay*: the
// traversal that defines visit order, link logs, and statistics. In
// front of it sits a staged acquisition pipeline — a durable,
// prioritized URL frontier (internal/frontier), K fetcher workers with
// per-site politeness limiting on the virtual clock, and a parser stage
// feeding discovered links back — so fetching parallelizes, survives
// host crashes (WithFrontier), honors robots.txt (WithRobotsPolicy),
// and re-crawls incrementally (WithRecrawl), while Stats stay
// byte-identical to the serial crawl of the seed.
//
// A robot is configured only through New(fetcher, opts...) and driven
// with RunCtx(ctx, startURL). What it fetches is decided in one place,
// the crawl's Gate: acquisition admits, the replay logs rejections and
// a fleet's frontier service admits by the same verdicts.
package webbot

import (
	"fmt"
	"sort"
	"time"

	"tax/internal/frontier"
	"tax/internal/websim"
)

// DefaultMaxStableDepth is the depth beyond which the original Webbot
// became unstable in the paper's test.
const DefaultMaxStableDepth = 4

// ParseCostPerKB is the simulated client-side cost of parsing and
// bookkeeping per KiB of fetched page, calibrated to a 1999 workstation
// (≈1.7 MB/s of HTML through the robot) so that the paper's measured
// LAN-vs-local ratio is reproduced; see EXPERIMENTS.md.
const ParseCostPerKB = 800 * time.Microsecond

// LinkReport is one problem or constraint row in the robot's log.
type LinkReport struct {
	// URL is the link target.
	URL string
	// Referrer is the page the link was found on.
	Referrer string
	// Status is the HTTP-like status observed (0 for rejected links,
	// which were never fetched).
	Status int
	// Reason explains the entry: "invalid" for a failed fetch, or the
	// Gate's Reason for a rejected link.
	Reason string
}

// Stats is the robot's gathered output.
type Stats struct {
	// PagesVisited counts successfully fetched and parsed pages.
	PagesVisited int
	// BytesFetched totals the body bytes transferred.
	BytesFetched int
	// LinksChecked counts every link examined.
	LinksChecked int
	// MaxDepthSeen is the deepest level actually visited.
	MaxDepthSeen int
	// TypeCounts histograms the content types encountered.
	TypeCounts map[string]int
	// AgeBuckets histograms document ages: <30 days, <180, <365, older —
	// the "age ... of web pages encountered" statistic.
	AgeBuckets [4]int
	// Invalid lists links whose fetch failed (the mining result).
	Invalid []LinkReport
	// Rejected lists links not followed due to constraints; the second
	// pass of the case study validates the prefix-rejected ones.
	Rejected []LinkReport
	// Revalidated counts pages an incremental re-crawl verified
	// unchanged with a HEAD probe instead of refetching.
	Revalidated int
	// Elapsed is the simulated time the crawl took on the robot's clock.
	Elapsed time.Duration
}

// RejectedByPrefix returns the rejected links that failed the prefix
// constraint (the outward-pointing links of the case study), sorted and
// de-duplicated.
func (s *Stats) RejectedByPrefix() []LinkReport {
	seen := map[string]bool{}
	var out []LinkReport
	for _, r := range s.Rejected {
		if r.Reason == string(ReasonPrefix) && !seen[r.URL] {
			seen[r.URL] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Robot is a web robot: it crawls through whatever fetcher it is given
// — a local or remote websim client, which is exactly the difference
// the paper's experiment measures. Build one with New; its options fix
// the constraints, the clock charged for parsing and the worker count
// for the robot's lifetime.
type Robot struct {
	fetcher websim.ForkableFetcher
	cfg     config
	// last is the frontier of the most recent RunCtx (Records feeds
	// ModelMakespan and StatsFromRecords).
	last *frontier.Frontier
}

// Records returns the completed frontier records of the robot's most
// recent RunCtx, sorted by URL — the input frontier.ModelMakespan and
// StatsFromRecords consume. Nil before any run.
func (r *Robot) Records() []*frontier.PageRecord {
	if r.last == nil {
		return nil
	}
	return r.last.Records()
}

// Failures returns the failure journal of the robot's most recent
// RunCtx: terminally failed fetches and subtrees abandoned beyond the
// stable depth, as typed, durable events.
func (r *Robot) Failures() []*frontier.Failure {
	if r.last == nil {
		return nil
	}
	return r.last.Failures()
}

// ValidateLinks fetches each URL once through the fetcher and reports the
// invalid ones — the second step of the case study, applied to the links
// the constrained crawl rejected.
func ValidateLinks(f websim.Fetcher, links []LinkReport) ([]LinkReport, error) {
	var invalid []LinkReport
	for _, l := range links {
		resp, err := f.Fetch(l.URL)
		if err != nil {
			return nil, fmt.Errorf("webbot: validate %s: %w", l.URL, err)
		}
		if resp.Status != websim.StatusOK {
			invalid = append(invalid, LinkReport{
				URL: l.URL, Referrer: l.Referrer, Status: resp.Status, Reason: "invalid",
			})
		}
	}
	return invalid, nil
}
