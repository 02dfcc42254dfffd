package webbot

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"tax/internal/simnet"
)

// TestParallelCrawlIdenticalToSerial is the tentpole determinism proof:
// a K=8 parallel crawl of the 917-page case-study site produces Stats
// byte-identical to the serial crawl — visit counts, byte totals, link
// logs in order, age/type histograms, and the simulated Elapsed.
func TestParallelCrawlIdenticalToSerial(t *testing.T) {
	serialBot, site := newLocalRobot(t, 4)
	serial, err := serialBot.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 8} {
		par, _ := siteRobot(site, simnet.Loopback, 4, WithWorkers(workers))
		got, err := par.RunCtx(context.Background(), site.Root)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: parallel Stats differ from serial\nparallel: %+v\nserial:   %+v",
				workers, got, serial)
		}
		if got.Elapsed != serial.Elapsed {
			t.Errorf("workers=%d: Elapsed %v != serial %v", workers, got.Elapsed, serial.Elapsed)
		}
	}
}

// TestParallelCrawlClockIdentical checks the robot's clock itself (not
// just Stats.Elapsed) advances identically, and the fetcher's traffic
// counters match: the fleet and bench layers read both.
func TestParallelCrawlClockIdentical(t *testing.T) {
	site := caseSite(t)
	serialBot, serialClient := siteRobot(site, simnet.Loopback, 4)
	if _, err := serialBot.RunCtx(context.Background(), site.Root); err != nil {
		t.Fatal(err)
	}
	serialClock := serialClient.Clock.Now()

	par, parClient := siteRobot(site, simnet.Loopback, 4, WithWorkers(8))
	if _, err := par.RunCtx(context.Background(), site.Root); err != nil {
		t.Fatal(err)
	}
	if got := parClient.Clock.Now(); got != serialClock {
		t.Errorf("parallel clock = %v, serial clock = %v", got, serialClock)
	}
	if parClient.Requests != serialClient.Requests || parClient.BytesFetched != serialClient.BytesFetched {
		t.Errorf("parallel client counters (%d req, %d B) != serial (%d req, %d B)",
			parClient.Requests, parClient.BytesFetched, serialClient.Requests, serialClient.BytesFetched)
	}
}

// TestParallelCrawlsShareOneSite: two eight-worker crawls of one fresh
// site at once, sixteen fetchers reading the same prebuilt responses,
// each produce the serial crawl's Stats. Under -race this is the check
// that a fetch, the site's first included, only reads the site.
func TestParallelCrawlsShareOneSite(t *testing.T) {
	serialBot, other := newLocalRobot(t, 4)
	serial, err := serialBot.RunCtx(context.Background(), other.Root)
	if err != nil {
		t.Fatal(err)
	}
	site := caseSite(t)
	var got [2]*Stats
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			par, _ := siteRobot(site, simnet.Loopback, 4, WithWorkers(8))
			got[i], errs[i] = par.RunCtx(context.Background(), site.Root)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], serial) {
			t.Errorf("crawl %d of the shared site: Stats differ from serial", i)
		}
	}
}

// TestParallelCrawlDepthSweep checks determinism across depth limits,
// including depth 0 (root only) where the discovery has a single wave.
func TestParallelCrawlDepthSweep(t *testing.T) {
	for _, depth := range []int{0, 1, 2, 3} {
		serialBot, site := newLocalRobot(t, depth)
		serial, err := serialBot.RunCtx(context.Background(), site.Root)
		if err != nil {
			t.Fatal(err)
		}
		par, _ := siteRobot(site, simnet.Loopback, depth, WithWorkers(4))
		got, err := par.RunCtx(context.Background(), site.Root)
		if err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("depth=%d: parallel Stats differ from serial", depth)
		}
	}
}

// TestPrefixBoundaries covers the boundary cases the old hand-rolled
// hasPrefix helper never had tests for: the empty prefix (matches
// everything, so nothing is prefix-rejected) and a prefix longer than
// the URL (rejects it).
func TestPrefixBoundaries(t *testing.T) {
	site := caseSite(t)
	run := func(prefix string, maxDepth int) *Stats {
		c := siteClient(site, simnet.Loopback)
		r := New(c, WithClock(c.Clock), WithMaxDepth(maxDepth), WithPrefix(prefix))
		st, err := r.RunCtx(context.Background(), site.Root)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Empty prefix: no link is prefix-rejected; external links are
	// followed (and mostly resolve through the universe).
	st := run("", 1)
	for _, rej := range st.Rejected {
		if rej.Reason == "prefix" {
			t.Fatalf("empty prefix rejected %q", rej.URL)
		}
	}

	// A prefix longer than every URL matches nothing: all links are
	// prefix-rejected and only the root is visited.
	longPrefix := "http://webserv/this-prefix-is-longer-than-any-generated-url-on-the-site/really/it/is/"
	st = run(longPrefix, 4)
	if st.PagesVisited != 1 {
		t.Errorf("long prefix: visited %d pages, want 1 (root only)", st.PagesVisited)
	}
	for _, rej := range st.Rejected {
		if rej.Reason != "prefix" {
			t.Errorf("long prefix: unexpected rejection reason %q for %q", rej.Reason, rej.URL)
		}
	}
}
