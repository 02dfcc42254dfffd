package bench

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"tax/internal/cabinet"
	"tax/internal/frontier"
	"tax/internal/simnet"
	"tax/internal/vclock"
	"tax/internal/webbot"
	"tax/internal/websim"
)

// FrontierResult is one point of the staged-crawler schedule grid
// (worker count × politeness delay) over the 917-page case-study site,
// in machine-readable form for BENCH_frontier.json.
type FrontierResult struct {
	// Workers is the fetcher-stage pool width at this point.
	Workers int `json:"workers"`
	// PolitenessMs is the per-site politeness delay.
	PolitenessMs float64 `json:"politeness_ms"`
	// MakespanMs is the schedule model's virtual completion time for
	// this point (frontier.ModelMakespan over the crawl's records).
	MakespanMs float64 `json:"virtual_makespan_ms"`
	// Speedup is the 1-worker/0-delay makespan divided by this one.
	Speedup float64 `json:"speedup_vs_serial"`
	// Pages and Bytes are the crawl's aggregate results — identical at
	// every grid point, or the staged pipeline is not deterministic.
	Pages int `json:"pages"`
	Bytes int `json:"bytes_fetched"`
	// Identical reports this point's full Stats == the serial baseline.
	Identical bool `json:"stats_identical_to_serial"`
}

// FrontierChecks carries the staged crawler's durability and re-crawl
// check outcomes for BENCH_frontier.json. Every field is a pure
// function of the seeded site and the virtual clock, so reruns are
// byte-identical.
type FrontierChecks struct {
	// GridIdentical is the conjunction of every grid point's Identical.
	GridIdentical bool `json:"grid_stats_identical"`
	// ResumeIdentical reports that a crawl interrupted mid-flight (its
	// durable frontier cut off at a WAL append) and resumed over the
	// same store produced Stats byte-identical to an uninterrupted run.
	ResumeIdentical bool `json:"crash_resume_stats_identical"`
	// RecrawlRevalidated counts pages the incremental re-crawl verified
	// unchanged with a HEAD probe; RecrawlRefetched counts pages whose
	// digest changed and were fetched in full.
	RecrawlRevalidated int `json:"recrawl_revalidated"`
	RecrawlRefetched   int `json:"recrawl_refetched"`
	// RecrawlBytesSaved is the transfer saved by revalidation: the full
	// crawl's body bytes minus the re-crawl's.
	RecrawlBytesSaved int `json:"recrawl_bytes_saved"`
	// RobotsPages is the page count when the crawl honors the site's
	// seeded robots.txt; RobotsPruned is how many of the 917 pages the
	// exclusion rules removed.
	RobotsPages  int `json:"robots_honored_pages"`
	RobotsPruned int `json:"robots_pruned_pages"`
}

// frontierRobot builds a case-study robot on a fresh virtual clock.
func frontierRobot(opts ...webbot.Option) (*webbot.Robot, *websim.Site, error) {
	site, err := websim.Generate(websim.CaseStudySpec("webserv"))
	if err != nil {
		return nil, nil, err
	}
	clock := vclock.NewVirtual()
	fetcher := &websim.Client{
		Server:   websim.DefaultServer(site),
		Universe: &websim.Universe{Origin: site},
		Link:     simnet.Loopback,
		Clock:    clock,
	}
	base := []webbot.Option{
		webbot.WithClock(clock),
		webbot.WithMaxDepth(4),
		webbot.WithPrefix("http://webserv/"),
	}
	return webbot.New(fetcher, append(base, opts...)...), site, nil
}

// Frontier benchmarks the staged crawler of PR 10 (experiment E10).
//
// The grid sweeps fetcher workers {1,2,4,8} × politeness {0,2,10} ms
// over the paper's 917-page site and reports each point's virtual
// makespan under the frontier's deterministic schedule model — the
// acceptance property being that the crawl's *Stats* are byte-identical
// at every point (acquisition order is free; the canonical replay is
// not). Three check sections ride along: crash-resume over a durable
// frontier, incremental re-crawl with HEAD revalidation, and
// robots.txt pruning.
func Frontier() (*Table, any, error) {
	t := &Table{
		Title:  "E10-frontier — staged crawler: workers × politeness schedule model",
		Note:   "virtual makespan from frontier.ModelMakespan; Stats identical at every point",
		Header: []string{"workers", "politeness", "makespan", "speedup", "pages", "identical"},
	}

	// Serial baseline: one worker, no politeness delay.
	serialBot, serialSite, err := frontierRobot()
	if err != nil {
		return nil, nil, err
	}
	serialStats, err := serialBot.RunCtx(context.Background(), serialSite.Root)
	if err != nil {
		return nil, nil, err
	}
	serialMakespan := frontier.ModelMakespan(serialBot.Records(), 1, 0)

	checks := &FrontierChecks{GridIdentical: true}
	var results []FrontierResult
	for _, w := range []int{1, 2, 4, 8} {
		for _, p := range []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond} {
			r, site, err := frontierRobot(webbot.WithWorkers(w), webbot.WithPoliteness(p))
			if err != nil {
				return nil, nil, err
			}
			st, err := r.RunCtx(context.Background(), site.Root)
			if err != nil {
				return nil, nil, err
			}
			makespan := frontier.ModelMakespan(r.Records(), w, p)
			res := FrontierResult{
				Workers:      w,
				PolitenessMs: float64(p.Microseconds()) / 1000,
				MakespanMs:   float64(makespan.Microseconds()) / 1000,
				Pages:        st.PagesVisited,
				Bytes:        st.BytesFetched,
				Identical:    reflect.DeepEqual(st, serialStats),
			}
			if makespan > 0 {
				res.Speedup = serialMakespan.Seconds() / makespan.Seconds()
			}
			checks.GridIdentical = checks.GridIdentical && res.Identical
			results = append(results, res)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", w),
				ms(p),
				ms(makespan),
				fmt.Sprintf("%.2fx", res.Speedup),
				fmt.Sprintf("%d", st.PagesVisited),
				fmt.Sprintf("%v", res.Identical),
			})
		}
	}

	if err := frontierResume(checks, serialStats); err != nil {
		return nil, nil, err
	}
	if err := frontierRecrawl(checks); err != nil {
		return nil, nil, err
	}
	if err := frontierRobots(checks); err != nil {
		return nil, nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"crash-resume ≡ serial", "", "", "", "", fmt.Sprintf("%v", checks.ResumeIdentical)},
		[]string{"re-crawl revalidated", "", "", "", fmt.Sprintf("%d", checks.RecrawlRevalidated),
			fmt.Sprintf("refetched %d", checks.RecrawlRefetched)},
		[]string{"robots.txt honored", "", "", "", fmt.Sprintf("%d", checks.RobotsPages),
			fmt.Sprintf("pruned %d", checks.RobotsPruned)},
	)
	return t, struct {
		Checks  *FrontierChecks  `json:"checks"`
		Results []FrontierResult `json:"results"`
	}{checks, results}, nil
}

// frontierResume interrupts a durable crawl at its frontier store's
// 400th WAL append (mid-crawl: a full run commits 941, one per URL and
// one per worker's first claim, plus the seed), then resumes
// over the same store with a fresh robot and compares the finished
// Stats against the uninterrupted baseline.
func frontierResume(checks *FrontierChecks, serial *webbot.Stats) error {
	store := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
	r1, site, err := frontierRobot(webbot.WithWorkers(4), webbot.WithFrontier(store, "fr/"))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var appends int64
	store.SetAppendHook(func(seq uint64) {
		if atomic.AddInt64(&appends, 1) == 400 {
			cancel()
		}
	})
	if _, err := r1.RunCtx(ctx, site.Root); err == nil {
		return fmt.Errorf("bench: frontier crawl finished before the interrupt")
	}
	store.SetAppendHook(nil)

	r2, site2, err := frontierRobot(webbot.WithWorkers(4), webbot.WithFrontier(store, "fr/"))
	if err != nil {
		return err
	}
	st, err := r2.RunCtx(context.Background(), site2.Root)
	if err != nil {
		return err
	}
	checks.ResumeIdentical = reflect.DeepEqual(st, serial)
	return nil
}

// frontierRecrawl crawls into a durable frontier, ages one young page
// past every bucket boundary, and re-crawls incrementally: unchanged
// pages revalidate with a HEAD probe, the aged page refetches in full.
func frontierRecrawl(checks *FrontierChecks) error {
	store := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
	r1, site, err := frontierRobot(webbot.WithFrontier(store, "fr/"))
	if err != nil {
		return err
	}
	st1, err := r1.RunCtx(context.Background(), site.Root)
	if err != nil {
		return err
	}
	// Deterministic pick: the lexically first young page. Aging it
	// changes its digest, so the re-crawl must fetch it in full.
	var aged string
	for _, rec := range r1.Records() {
		if rec.AgeDays < 30 && rec.Type != "" && (aged == "" || rec.URL < aged) {
			aged = rec.URL
		}
	}
	if aged == "" {
		return fmt.Errorf("bench: no young page to age on the case-study site")
	}

	r2, site2, err := frontierRobot(webbot.WithFrontier(store, "fr/"), webbot.WithRecrawl())
	if err != nil {
		return err
	}
	site2.SetAgeDays(aged, 4000)
	st2, err := r2.RunCtx(context.Background(), site2.Root)
	if err != nil {
		return err
	}
	checks.RecrawlRevalidated = st2.Revalidated
	checks.RecrawlRefetched = st2.PagesVisited - st2.Revalidated
	checks.RecrawlBytesSaved = st1.BytesFetched - st2.BytesFetched
	return nil
}

// frontierRobots crawls the same site honoring its seeded robots.txt
// and records how many of the 917 pages the exclusion rules prune.
func frontierRobots(checks *FrontierChecks) error {
	r, site, err := frontierRobot(webbot.WithRobotsPolicy(webbot.RobotsHonor))
	if err != nil {
		return err
	}
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		return err
	}
	checks.RobotsPages = st.PagesVisited
	checks.RobotsPruned = 917 - st.PagesVisited
	return nil
}
