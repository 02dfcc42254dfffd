package main

import (
	"fmt"
	"time"

	"tax/internal/linkmine"
	"tax/internal/websim"
)

// The committed EXPERIMENTS.md E1 row, as printed there: the default
// seed must reproduce it exactly.
const (
	e1Pages        = 917
	e1StationaryMS = "4572.6"
	e1MobileMS     = "3798.5"
	e1SpeedupPct   = "16.9"
)

// e1Spec maps the benchmark seed to the site: seed 1 is the paper's
// case study as committed (CaseStudySpec's own seed 1999), any other
// seed perturbs the generator's seed and nothing else.
func e1Spec(seed int64) websim.SiteSpec {
	spec := websim.CaseStudySpec("webserv")
	spec.Seed += seed - 1
	return spec
}

// e1Scan is the e1_scan workload: the paper's experiment, one op =
// one linkmine.Run (boot two nodes, generate the site, scan it
// stationary across LAN100, then as the mobile mwWebbot).
type e1Scan struct {
	tr   *tracer
	seed int64
	spec websim.SiteSpec
	last *linkmine.Comparison
}

func (w *e1Scan) sliceOps() int { return 10 }

func (w *e1Scan) setup(seed int64, tr *tracer) error {
	w.tr, w.seed, w.spec = tr, seed, e1Spec(seed)
	return nil
}

func (w *e1Scan) run(n int, rec *recorder) error {
	for i := 0; i < n; i++ {
		root := w.tr.beginOp()
		t0 := time.Now()
		cmp, err := linkmine.Run(linkmine.Config{Spec: w.spec})
		d := time.Since(t0)
		w.tr.endOp(root)
		switch {
		case err != nil:
			rec.fail(err)
		case cmp.Stationary.PagesVisited != e1Pages || cmp.Mobile.PagesVisited != e1Pages:
			rec.fail(fmt.Errorf("scanned %d pages stationary and %d mobile, want %d both ways",
				cmp.Stationary.PagesVisited, cmp.Mobile.PagesVisited, e1Pages))
		case cmp.Stationary.InvalidTotal() != cmp.Mobile.InvalidTotal():
			rec.fail(fmt.Errorf("stationary found %d dead links, mobile %d",
				cmp.Stationary.InvalidTotal(), cmp.Mobile.InvalidTotal()))
		default:
			w.last = cmp
			rec.ok(d)
		}
	}
	return nil
}

// check: at the default seed the virtual-clock figures are the
// committed E1 row, digit for digit.
func (w *e1Scan) check() error {
	if w.last == nil {
		return fmt.Errorf("no scan completed")
	}
	if w.seed != 1 {
		return nil
	}
	got := [3]string{
		fmt.Sprintf("%.1f", float64(w.last.Stationary.ScanElapsed.Microseconds())/1000),
		fmt.Sprintf("%.1f", float64(w.last.Mobile.ScanElapsed.Microseconds())/1000),
		fmt.Sprintf("%.1f", w.last.SpeedupPercent()),
	}
	want := [3]string{e1StationaryMS, e1MobileMS, e1SpeedupPct}
	if got != want {
		return fmt.Errorf("virtual stationary/mobile/speed-up = %v, EXPERIMENTS E1 says %v", got, want)
	}
	return nil
}

func (w *e1Scan) close() {}

// fleetMaxDepth is the fleet's admission depth: deeper than the site
// (seven levels), so admission never cuts a link. At the default of 4 the
// crawl loses pages about once in five thousand runs at HEAD: when a
// claim is re-discovered at a shallower depth while its fetch is in
// flight, ag_frontier enqueues the page's links at the stale depth + 1
// before Frontier.Complete lowers the record, the subtree stays one level
// too deep, and its last level fails admission — RunFrontierFleet then
// errors with "no completed record". A benchmark needs a workload on
// which no op fails; the fix belongs to a correctness change. The
// verified statistics are unaffected: the robot reports to its stable
// depth of 4 (917 pages) whatever the admission depth.
const fleetMaxDepth = 8

// fleetURLs is what the fleet then claims per crawl: the site's 1117
// pages and its 19 dead internal links.
const fleetURLs = 1136

// fleetCrawl is the fleet_crawl workload: one op = one clean
// linkmine.RunFrontierFleet with eight fetcher agents.
type fleetCrawl struct {
	tr  *tracer
	cfg linkmine.FrontierFleetConfig
}

func (w *fleetCrawl) sliceOps() int { return 1 }

func (w *fleetCrawl) setup(seed int64, tr *tracer) error {
	w.tr = tr
	// RunFrontierFleet generates the case-study site itself; the only
	// input it takes from outside is the server's name, which the seed
	// picks (same length for every seed, so the same bytes move).
	w.cfg = linkmine.FrontierFleetConfig{Agents: 8, MaxDepth: fleetMaxDepth, Host: fmt.Sprintf("web%04d", seed%10000)}
	return nil
}

func (w *fleetCrawl) run(n int, rec *recorder) error {
	for i := 0; i < n; i++ {
		root := w.tr.beginOp()
		t0 := time.Now()
		rep, err := linkmine.RunFrontierFleet(w.cfg)
		d := time.Since(t0)
		w.tr.endOp(root)
		switch {
		case err != nil:
			rec.fail(err)
		case !rep.Identical:
			rec.fail(fmt.Errorf("fleet aggregate differs from the serial robot's stats"))
		case len(rep.DoubleFetched) > 0:
			rec.fail(fmt.Errorf("%d URLs fetched twice", len(rep.DoubleFetched)))
		case len(rep.WorkerErrors) > 0:
			rec.fail(fmt.Errorf("worker errors: %v", rep.WorkerErrors))
		case rep.Serial.PagesVisited != e1Pages || rep.Records != fleetURLs:
			rec.fail(fmt.Errorf("%d pages in the statistics and %d records, want %d and %d",
				rep.Serial.PagesVisited, rep.Records, e1Pages, fleetURLs))
		default:
			rec.ok(d)
		}
	}
	return nil
}

func (w *fleetCrawl) check() error { return nil }
func (w *fleetCrawl) close()       {}
