package webbot

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tax/internal/frontier"
	"tax/internal/vclock"
	"tax/internal/websim"
)

// RunCtx crawls from startURL: the staged acquisition pipeline (frontier
// + K fetcher workers + parser feedback) fetches every reachable page
// exactly once, then the canonical serial traversal replays the
// completed records to produce Stats — byte-identical to the seed's
// recursive crawl, whatever the worker count, politeness delay, or
// crash/resume history.
func (r *Robot) RunCtx(ctx context.Context, startURL string) (*Stats, error) {
	cfg := &r.cfg
	if cfg.err != nil {
		return nil, cfg.err
	}
	if r.fetcher == nil {
		return nil, errors.New("webbot: robot needs a fetcher")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	st := &Stats{TypeCounts: make(map[string]int)}
	start := cfg.clock.Now()

	var rules *Robots
	if cfg.robots == RobotsHonor {
		var err error
		rules, err = r.loadRobots(startURL)
		if err != nil {
			return nil, err
		}
		if !rules.Allowed(cfg.agent, urlPath(startURL)) {
			return nil, fmt.Errorf("%w: %s for agent %q", ErrRobotsDenied, startURL, cfg.agent)
		}
	}

	fr, err := frontier.New(frontier.Options{
		Store:       cfg.store,
		Namespace:   cfg.ns,
		MaxAttempts: cfg.maxAttempts,
		AdoptClaims: true, // a resumed local crawl owns no live workers
	})
	if err != nil {
		return nil, err
	}
	r.last = fr
	if cfg.recrawl {
		if cfg.store == nil {
			return nil, errors.New("webbot: WithRecrawl requires WithFrontier")
		}
		if fr.Counts().Done > 0 {
			if err := fr.BeginRecrawl(); err != nil {
				return nil, err
			}
		}
	}

	// Stage 1, acquisition: workers drain the frontier on forked
	// fetchers, recording one PageRecord per URL.
	gate := newGate(cfg, rules)
	delay := max(cfg.politeness, rules.CrawlDelay(cfg.agent))
	if err := acquire(ctx, r.fetcher, fr, gate, cfg.workers, delay, startURL); err != nil {
		return nil, err
	}
	// Stage 2, canonical replay: the seed's recursive traversal over
	// the records where they are.
	rp := &replayer{
		gate:   gate,
		fr:     fr,
		clock:  cfg.clock,
		parent: r.fetcher,
		record: fr.Record,
		pages:  make(map[string]replayPage, fr.Counts().Done),
		st:     st,
	}
	if err := rp.crawl(startURL, "", 0); err != nil {
		return nil, err
	}
	st.Elapsed = cfg.clock.Now() - start
	return st, nil
}

// loadRobots fetches and parses the origin's robots.txt on the robot's
// own clock. A missing or empty file allows everything (nil rules).
func (r *Robot) loadRobots(startURL string) (*Robots, error) {
	u := robotsURLFor(startURL)
	if u == "" {
		return nil, nil
	}
	resp, err := r.fetcher.Fetch(u)
	if err != nil {
		return nil, fmt.Errorf("webbot: fetch %s: %w", u, err)
	}
	if resp.Status != websim.StatusOK || resp.Page == nil || resp.Page.Body == "" {
		return nil, nil
	}
	return ParseRobots(resp.Page.Body), nil
}

// acquire runs the fetcher-worker stage until the frontier drains,
// spacing fetches to one host at least delay apart.
func acquire(ctx context.Context, ff websim.ForkableFetcher, fr *frontier.Frontier,
	gate *Gate, workers int, delay time.Duration, startURL string) error {
	if _, _, err := fr.Add([]frontier.Link{{URL: startURL, Depth: 0}}); err != nil {
		return err
	}
	lim := frontier.NewLimiter(delay)
	if done := ctx.Done(); done != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				fr.Close() // wakes every ClaimWait with WaitClosed
			case <-finished:
			}
		}()
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = mine("w"+strconv.Itoa(w), ff, fr, gate, lim)
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mine is one fetcher worker: claim, politeness wait, fetch (or HEAD
// revalidation), then complete the claim, admitting its parsed links
// and leasing the next claim in one frontier transaction. Each worker
// fetches on a fork with a private clock so recorded costs are
// independent of scheduling.
func mine(wid string, ff websim.ForkableFetcher, fr *frontier.Frontier, gate *Gate, lim *frontier.Limiter) error {
	clk := vclock.NewVirtual()
	fork := ff.Fork(clk)
	header, _ := fork.(websim.HeadFetcher)
	admit := func(url string, depth int) bool { return gate.Verdict(url, depth) == ReasonOK }
	cl, state := fr.ClaimWait(wid)
	for state == frontier.WaitClaimed {
		rec, err := fetchOne(cl, fork, header, clk, lim)
		if err != nil {
			if _, ferr := fr.Fail(cl.URL, wid, cl.Attempts, CodeFetchFailed, err.Error(), true); ferr != nil {
				return ferr
			}
			cl, state = fr.ClaimWait(wid)
			continue
		}
		if cl, err = fr.CompleteNext(wid, rec, admit); err != nil {
			return err
		}
		if cl == nil {
			cl, state = fr.ClaimWait(wid)
		}
	}
	return nil // drained or closed
}

// fetchOne performs the network half of one claim on the worker's
// private clock. The politeness wait is charged *before* the cost
// window opens, so FetchCost is a pure function of the URL.
func fetchOne(cl *frontier.Claim, fork websim.Fetcher, header websim.HeadFetcher,
	clk vclock.Clock, lim *frontier.Limiter) (*frontier.PageRecord, error) {
	clk.Advance(lim.Reserve(frontier.HostOf(cl.URL), clk.Now()))
	before := clk.Now()
	if cl.Prior != nil && header != nil {
		hr, err := header.Head(cl.URL)
		if err == nil && digestOfResponse(hr) == cl.Prior.Digest {
			rec := *cl.Prior
			rec.Bytes = 0 // nothing crossed the wire
			rec.FetchCost = clk.Now() - before
			rec.Revalidated = true
			return &rec, nil
		}
		// Changed (or the probe failed): fall through to a full fetch;
		// the probe's cost stays inside this fetch's recorded window.
	}
	resp, err := fork.Fetch(cl.URL)
	if err != nil {
		return nil, err
	}
	return RecordFetch(resp, cl, clk.Now()-before), nil
}

// RecordFetch folds a fetch response into the durable record the
// canonical replay consumes. Exported for remote fleet workers, which
// fetch far from the frontier and ship records back over the firewall.
func RecordFetch(resp *websim.Response, cl *frontier.Claim, cost time.Duration) *frontier.PageRecord {
	rec := &frontier.PageRecord{
		URL:       cl.URL,
		Referrer:  cl.Referrer,
		Depth:     cl.Depth,
		Status:    resp.Status,
		Bytes:     resp.Bytes,
		FetchCost: cost,
		Digest:    digestOfResponse(resp),
	}
	if resp.Page != nil {
		rec.Type = string(resp.Page.Type)
		rec.AgeDays = resp.Page.AgeDays
		if links := resp.Page.Links; len(links) > 0 {
			rec.Links = make([]frontier.Link, len(links))
			for i, l := range links {
				rec.Links[i] = frontier.Link{URL: l.URL, Referrer: l.Referrer}
			}
		}
	}
	return rec
}

// digestOfResponse is the revalidation digest: status, size, age. A
// HEAD probe returns the same metadata, so an unchanged page matches
// without a body transfer.
func digestOfResponse(resp *websim.Response) string {
	size, age := 0, 0
	if resp.Page != nil {
		size, age = resp.Page.Size, resp.Page.AgeDays
	}
	var buf [3 * 20]byte
	b := strconv.AppendInt(buf[:0], int64(resp.Status), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(size), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(age), 10)
	return string(b)
}

// replayPage is one URL the replay has reached: the shallowest depth it
// was reached at, and the links it re-expands when reached shallower
// (none when the URL was invalid). The replay keeps it by value and
// writes it back when the depth changes.
type replayPage struct {
	depth int
	links []frontier.Link
}

// replayer is the canonical serial traversal — the seed's recursive
// depth-limited DFS over completed records, charging their recorded
// costs.
// Depth-limited DFS may first reach a page via a long cross-link path
// and later via a shorter tree path; each page is fetched exactly once
// but re-expanded when reached at a strictly shallower depth, so the
// depth constraint prunes by the page's best-known depth (as the W3C
// robot's breadth bookkeeping does).
type replayer struct {
	gate   *Gate
	fr     *frontier.Frontier // journal target for unstable subtrees (may be nil)
	clock  vclock.Clock
	parent websim.ForkableFetcher // Replay target for recorded fetches (nil in StatsFromRecords)
	// record finds a URL's completed acquisition record.
	record func(url string) (*frontier.PageRecord, bool)
	pages  map[string]replayPage
	st     *Stats
	// resp is lent to parent.Replay for each recorded fetch, which
	// keeps none of them.
	resp websim.Response
}

// crawl fetches (once) and expands one page depth-first.
func (rp *replayer) crawl(url, referrer string, depth int) error {
	if pg, seen := rp.pages[url]; seen {
		if depth >= pg.depth {
			return nil
		}
		pg.depth = depth
		rp.pages[url] = pg
		return rp.expand(pg.links, depth)
	}

	// The fetch recurses into nothing, so the page enters the map once,
	// after it, with the links it will re-expand.
	rec, err := rp.fetch(url)
	if err != nil {
		return err
	}
	if rec.Status != websim.StatusOK {
		rp.pages[url] = replayPage{depth: depth}
		rp.st.Invalid = append(rp.st.Invalid, LinkReport{
			URL: url, Referrer: referrer, Status: rec.Status, Reason: "invalid",
		})
		return nil
	}
	rp.st.PagesVisited++
	rp.st.BytesFetched += rec.Bytes
	if rec.Revalidated {
		rp.st.Revalidated++
	}
	if depth > rp.st.MaxDepthSeen {
		rp.st.MaxDepthSeen = depth
	}
	if rec.Type != "" {
		rp.st.TypeCounts[rec.Type]++
		switch age := rec.AgeDays; {
		case age < 30:
			rp.st.AgeBuckets[0]++
		case age < 180:
			rp.st.AgeBuckets[1]++
		case age < 365:
			rp.st.AgeBuckets[2]++
		default:
			rp.st.AgeBuckets[3]++
		}
	}
	// Parsing cost scales with transferred bytes (a revalidated page
	// transferred none and needs no re-parse).
	rp.clock.Advance(time.Duration(rec.Bytes) * ParseCostPerKB / 1024)
	rp.pages[url] = replayPage{depth: depth, links: rec.Links}
	return rp.expand(rec.Links, depth)
}

// fetch resolves one URL from the acquisition records, charging the
// parent fetcher (or the bare clock when there is none). A URL with no
// record was lost: ErrFetchFailed.
func (rp *replayer) fetch(url string) (*frontier.PageRecord, error) {
	rec, ok := rp.record(url)
	if !ok {
		return nil, fmt.Errorf("%w: no completed record for %s", ErrFetchFailed, url)
	}
	if rp.parent != nil {
		rp.resp = websim.Response{URL: url, Status: rec.Status, Bytes: rec.Bytes}
		rp.parent.Replay(&rp.resp, rec.FetchCost)
	} else {
		rp.clock.Advance(rec.FetchCost)
	}
	return rec, nil
}

// expand recurses over a fetched page's links, logging the ones the
// gate rejects.
func (rp *replayer) expand(links []frontier.Link, depth int) error {
	for _, link := range links {
		rp.st.LinksChecked++
		if v := rp.gate.Verdict(link.URL, depth+1); v != ReasonOK {
			rp.st.Rejected = append(rp.st.Rejected, LinkReport{
				URL: link.URL, Referrer: link.Referrer, Reason: string(v),
			})
			if v == ReasonUnstable && rp.fr != nil {
				// The legacy robot aborted the whole crawl here. The
				// staged crawler journals the abandoned subtree as a
				// typed event and carries on.
				_ = rp.fr.Journal(frontier.Failure{
					URL: link.URL, Referrer: link.Referrer, Depth: depth + 1,
					Code:   CodeDepthUnstable,
					Reason: fmt.Sprintf("subtree at depth %d beyond stable limit %d", depth+1, rp.gate.stable),
				})
			}
			continue
		}
		if err := rp.crawl(link.URL, link.Referrer, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// StatsFromRecords replays the canonical traversal over a completed
// record set and returns the Stats the serial crawl would produce —
// without a fetcher. The fleet coordinator uses it to fold N agents'
// shared-frontier work into one deterministic aggregate: Stats is a
// pure function of (records, options), so any claim interleaving that
// completes the same record set yields byte-identical Stats. A URL the
// traversal needs but the records lack returns ErrFetchFailed (a lost
// URL — exactly what the exactly-once invariant forbids). The replay
// has no robots.txt rules, so WithRobotsPolicy(RobotsHonor) is refused.
func StatsFromRecords(startURL string, recs []*frontier.PageRecord, opts ...Option) (*Stats, error) {
	cfg := buildConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.robots == RobotsHonor {
		return nil, errors.New("webbot: StatsFromRecords cannot replay WithRobotsPolicy(RobotsHonor): it has no robots.txt rules")
	}
	clock := vclock.NewVirtual()
	st := &Stats{TypeCounts: make(map[string]int)}
	records := make(map[string]*frontier.PageRecord, len(recs))
	for _, rec := range recs {
		records[rec.URL] = rec
	}
	rp := &replayer{
		gate:  newGate(&cfg, nil),
		clock: clock,
		record: func(url string) (*frontier.PageRecord, bool) {
			rec, ok := records[url]
			return rec, ok
		},
		pages: make(map[string]replayPage, len(recs)),
		st:    st,
	}
	if err := rp.crawl(startURL, "", 0); err != nil {
		return nil, err
	}
	st.Elapsed = clock.Now()
	return st, nil
}
