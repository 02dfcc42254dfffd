package webbot

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tax/internal/cabinet"
	"tax/internal/frontier"
	"tax/internal/simnet"
	"tax/internal/vclock"
	"tax/internal/websim"
)

func newClient(t *testing.T) (*websim.Client, *websim.Site) {
	t.Helper()
	site, err := websim.Generate(websim.CaseStudySpec("webserv"))
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewVirtual()
	return &websim.Client{
		Server:   websim.DefaultServer(site),
		Universe: &websim.Universe{Origin: site},
		Link:     simnet.Loopback,
		Clock:    clock,
	}, site
}

func TestOptionValidation(t *testing.T) {
	c, site := newClient(t)
	for _, bad := range [][]Option{
		{WithMaxDepth(-1)},
		{WithWorkers(0)},
		{WithStableDepth(-2)},
		{WithRetries(0)},
	} {
		r := New(c, bad...)
		if _, err := r.RunCtx(context.Background(), site.Root); err == nil {
			t.Errorf("invalid option %T accepted", bad[0])
		}
	}
}

// TestRobotsHonoredEndToEnd drives the full pipeline: websim generates
// a seeded robots.txt, the crawler fetches and obeys it.
func TestRobotsHonoredEndToEnd(t *testing.T) {
	c, site := newClient(t)
	if site.RobotsTxt() == "" {
		t.Fatal("generated site has no robots.txt")
	}
	disallowed := site.RobotsDisallowed()
	if len(disallowed) == 0 {
		t.Fatal("generated robots.txt disallows nothing")
	}
	r := New(c, WithClock(c.Clock), WithMaxDepth(4),
		WithPrefix("http://webserv/"), WithRobotsPolicy(RobotsHonor))
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesVisited >= 917 {
		t.Errorf("pages visited = %d; robots rules should have pruned some", st.PagesVisited)
	}
	fetched := map[string]bool{}
	for _, rec := range r.Records() {
		fetched[rec.URL] = true
	}
	for _, u := range disallowed {
		if fetched[u] {
			t.Errorf("disallowed URL fetched: %s", u)
		}
	}
	robotsRejected := 0
	for _, l := range st.Rejected {
		if l.Reason == "robots" {
			robotsRejected++
			if fetched[l.URL] {
				t.Errorf("URL both fetched and robots-rejected: %s", l.URL)
			}
		}
	}
	if robotsRejected == 0 {
		t.Error("no robots-rejected links logged")
	}
	// An ignoring crawl fetches the disallowed pages.
	c2, site2 := newClient(t)
	r2 := New(c2, WithClock(c2.Clock), WithMaxDepth(4), WithPrefix("http://webserv/"))
	st2, err := r2.RunCtx(context.Background(), site2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if st2.PagesVisited != 917 {
		t.Errorf("ignoring crawl visited %d, want 917", st2.PagesVisited)
	}
}

// TestRobotsDeniedAgent: the generated robots.txt banishes "badbot"
// entirely; a crawler carrying that agent string may not even start.
func TestRobotsDeniedAgent(t *testing.T) {
	c, site := newClient(t)
	r := New(c, WithClock(c.Clock), WithMaxDepth(4),
		WithPrefix("http://webserv/"), WithRobotsPolicy(RobotsHonor),
		WithUserAgent("badbot/1.0"))
	_, err := r.RunCtx(context.Background(), site.Root)
	if !errors.Is(err, ErrRobotsDenied) {
		t.Fatalf("err = %v, want ErrRobotsDenied", err)
	}
}

// TestUnstableDepthJournaled: the legacy robot aborted any crawl deeper
// than the stable limit; the staged crawler clamps, carries on, and
// journals the abandoned subtrees as typed wb_depth_unstable events.
func TestUnstableDepthJournaled(t *testing.T) {
	c, site := newClient(t)
	r := New(c, WithClock(c.Clock), WithMaxDepth(5), WithPrefix("http://webserv/"))
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesVisited != 917 {
		t.Errorf("clamped crawl visited %d, want 917 (stable depth 4)", st.PagesVisited)
	}
	unstable := 0
	for _, l := range st.Rejected {
		if l.Reason == "unstable" {
			unstable++
		}
	}
	if unstable == 0 {
		t.Error("no unstable-rejected links logged")
	}
	journaled := 0
	for _, fl := range r.Failures() {
		if fl.Code == CodeDepthUnstable {
			journaled++
		}
	}
	if journaled == 0 {
		t.Error("no wb_depth_unstable events journaled")
	}
	// Raising the stable limit unlocks the deeper crawl.
	c3, site3 := newClient(t)
	deep := New(c3, WithClock(c3.Clock), WithMaxDepth(5),
		WithPrefix("http://webserv/"), WithStableDepth(8))
	dst, err := deep.RunCtx(context.Background(), site3.Root)
	if err != nil {
		t.Fatal(err)
	}
	if dst.PagesVisited <= 917 {
		t.Errorf("depth-5 crawl visited %d, want > 917", dst.PagesVisited)
	}
}

// TestDurableFrontierResume interrupts a crawl mid-flight and resumes
// it from the cabinet-backed frontier: the resumed crawl completes the
// remaining work and produces Stats byte-identical to an uninterrupted
// serial run.
func TestDurableFrontierResume(t *testing.T) {
	base, site := newClient(t)
	baseline := New(base, WithClock(base.Clock), WithMaxDepth(4), WithPrefix("http://webserv/"))
	want, err := baseline.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}

	store := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
	ctx, cancel := context.WithCancel(context.Background())
	const interruptAt = 120 // WAL appends ≈ frontier transactions
	n := 0
	store.SetAppendHook(func(seq uint64) {
		n++
		if n == interruptAt {
			cancel()
		}
	})
	c1, site1 := newClient(t)
	r1 := New(c1, WithClock(c1.Clock), WithMaxDepth(4),
		WithPrefix("http://webserv/"), WithFrontier(store, "fr/"))
	if _, err := r1.RunCtx(ctx, site1.Root); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	store.SetAppendHook(nil)
	if store.Len() == 0 {
		t.Fatal("nothing persisted before the interrupt")
	}

	c2, site2 := newClient(t)
	r2 := New(c2, WithClock(c2.Clock), WithMaxDepth(4),
		WithPrefix("http://webserv/"), WithFrontier(store, "fr/"))
	got, err := r2.RunCtx(context.Background(), site2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed Stats differ from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
}

// TestRecrawlRevalidates: a second crawl cycle over a durable frontier
// revalidates unchanged pages with HEAD probes and refetches only the
// page whose metadata changed.
func TestRecrawlRevalidates(t *testing.T) {
	store := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
	c1, site := newClient(t)
	r1 := New(c1, WithClock(c1.Clock), WithMaxDepth(4),
		WithPrefix("http://webserv/"), WithFrontier(store, "fr/"))
	first, err := r1.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if first.Revalidated != 0 {
		t.Errorf("first cycle revalidated %d pages", first.Revalidated)
	}

	// Age one page; its HEAD digest changes, forcing a refetch.
	var changed string
	var changedBytes int
	for _, rec := range r1.Records() {
		if rec.Status == websim.StatusOK && rec.AgeDays < 30 {
			changed = rec.URL
			break
		}
	}
	if changed == "" {
		t.Fatal("no young page to age")
	}
	if !site.SetAgeDays(changed, 4000) {
		t.Fatalf("SetAgeDays(%s) failed", changed)
	}
	changedBytes = site.Lookup(changed).Size

	clock2 := vclock.NewVirtual()
	c2 := &websim.Client{Server: websim.DefaultServer(site),
		Universe: &websim.Universe{Origin: site}, Link: simnet.Loopback, Clock: clock2}
	r2 := New(c2, WithClock(clock2), WithMaxDepth(4),
		WithPrefix("http://webserv/"), WithFrontier(store, "fr/"), WithRecrawl())
	second, err := r2.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if second.PagesVisited != first.PagesVisited {
		t.Errorf("recrawl visited %d, first visited %d", second.PagesVisited, first.PagesVisited)
	}
	if want := first.PagesVisited - 1; second.Revalidated != want {
		t.Errorf("revalidated %d pages, want %d", second.Revalidated, want)
	}
	if second.BytesFetched != changedBytes {
		t.Errorf("recrawl transferred %d bytes, want only the changed page's %d",
			second.BytesFetched, changedBytes)
	}
	// The aged page moved from the youngest bucket to the oldest.
	if second.AgeBuckets[0] != first.AgeBuckets[0]-1 || second.AgeBuckets[3] != first.AgeBuckets[3]+1 {
		t.Errorf("age buckets not updated: first %v, second %v", first.AgeBuckets, second.AgeBuckets)
	}
	// Recrawl without a durable frontier is a configuration error.
	c3, site3 := newClient(t)
	r3 := New(c3, WithClock(c3.Clock), WithRecrawl())
	if _, err := r3.RunCtx(context.Background(), site3.Root); err == nil {
		t.Error("WithRecrawl without WithFrontier must fail")
	}
}

// TestStatsFromRecords: the fleet aggregate — Stats recomputed from a
// completed record set alone — matches the live crawl's.
func TestStatsFromRecords(t *testing.T) {
	c, site := newClient(t)
	r := New(c, WithClock(c.Clock), WithMaxDepth(4), WithPrefix("http://webserv/"))
	want, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StatsFromRecords(site.Root, r.Records(),
		WithMaxDepth(4), WithPrefix("http://webserv/"))
	if err != nil {
		t.Fatal(err)
	}
	// Replay charges are a pure function of the records, so even
	// Elapsed matches the live crawl.
	if !reflect.DeepEqual(got, want) {
		t.Errorf("StatsFromRecords differ:\n got %+v\nwant %+v", got, want)
	}
	// A missing record is a lost URL: loudly ErrFetchFailed.
	if _, err := StatsFromRecords(site.Root, r.Records()[1:],
		WithMaxDepth(4), WithPrefix("http://webserv/")); !errors.Is(err, ErrFetchFailed) {
		t.Errorf("truncated record set: err = %v, want ErrFetchFailed", err)
	}
	// The replay has no robots.txt rules: asking it to honour them is
	// refused by name, over any record set, never answered with the
	// robots-ignoring Stats or mistaken for a lost URL.
	c2, site2 := newClient(t)
	honour := New(c2, WithClock(c2.Clock), WithMaxDepth(4),
		WithPrefix("http://webserv/"), WithRobotsPolicy(RobotsHonor))
	if _, err := honour.RunCtx(context.Background(), site2.Root); err != nil {
		t.Fatal(err)
	}
	for name, recs := range map[string][]*frontier.PageRecord{
		"robots-honouring": honour.Records(),
		"robots-ignoring":  r.Records(),
	} {
		_, err := StatsFromRecords(site.Root, recs, WithMaxDepth(4),
			WithPrefix("http://webserv/"), WithRobotsPolicy(RobotsHonor))
		if err == nil || errors.Is(err, ErrFetchFailed) || !strings.Contains(err.Error(), "WithRobotsPolicy(RobotsHonor)") {
			t.Errorf("%s records under RobotsHonor: err = %v, want one naming WithRobotsPolicy(RobotsHonor)", name, err)
		}
	}
}

// TestPolitenessInvariance: politeness delays shape worker schedules,
// never Stats.
func TestPolitenessInvariance(t *testing.T) {
	c0, site := newClient(t)
	r0 := New(c0, WithClock(c0.Clock), WithMaxDepth(4),
		WithPrefix("http://webserv/"), WithWorkers(4))
	want, err := r0.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	c1, site1 := newClient(t)
	r1 := New(c1, WithClock(c1.Clock), WithMaxDepth(4),
		WithPrefix("http://webserv/"), WithWorkers(4), WithPoliteness(2e6))
	got, err := r1.RunCtx(context.Background(), site1.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("politeness changed Stats:\n got %+v\nwant %+v", got, want)
	}
}
