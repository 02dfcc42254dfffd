package webbot

import (
	"context"
	"strings"
	"testing"

	"tax/internal/simnet"
	"tax/internal/vclock"
	"tax/internal/websim"
)

// siteClient is a fresh client, on its own virtual clock, for site
// across link.
func siteClient(site *websim.Site, link simnet.Profile) *websim.Client {
	return &websim.Client{
		Server:   websim.DefaultServer(site),
		Universe: &websim.Universe{Origin: site},
		Link:     link,
		Clock:    vclock.NewVirtual(),
	}
}

// siteRobot is the case-study robot over site: prefix
// "http://webserv/", the client's clock, maxDepth, then opts.
func siteRobot(site *websim.Site, link simnet.Profile, maxDepth int, opts ...Option) (*Robot, *websim.Client) {
	c := siteClient(site, link)
	base := []Option{WithClock(c.Clock), WithMaxDepth(maxDepth), WithPrefix("http://webserv/")}
	return New(c, append(base, opts...)...), c
}

func caseSite(t *testing.T) *websim.Site {
	t.Helper()
	site, err := websim.Generate(websim.CaseStudySpec("webserv"))
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func newLocalRobot(t *testing.T, maxDepth int, opts ...Option) (*Robot, *websim.Site) {
	t.Helper()
	site := caseSite(t)
	r, _ := siteRobot(site, simnet.Loopback, maxDepth, opts...)
	return r, site
}

func TestCrawlVisits917Pages(t *testing.T) {
	r, site := newLocalRobot(t, 4)
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesVisited != 917 {
		t.Errorf("pages visited = %d, want 917", st.PagesVisited)
	}
	wantBytes := site.BytesWithinDepth(4)
	if st.BytesFetched != wantBytes {
		t.Errorf("bytes fetched = %d, want %d", st.BytesFetched, wantBytes)
	}
	if st.MaxDepthSeen != 4 {
		t.Errorf("max depth seen = %d", st.MaxDepthSeen)
	}
	if st.Elapsed <= 0 {
		t.Error("no simulated time elapsed")
	}
}

func TestCrawlFindsAllDeadInternalLinks(t *testing.T) {
	r, site := newLocalRobot(t, 4)
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, l := range st.Invalid {
		found[l.URL] = true
		if l.Referrer == "" {
			t.Errorf("invalid link %s has no referrer", l.URL)
		}
		if l.Status != websim.StatusNotFound {
			t.Errorf("invalid link %s status %d", l.URL, l.Status)
		}
	}
	for _, dead := range site.DeadInternalLinks() {
		if !found[dead] {
			t.Errorf("dead link not mined: %s", dead)
		}
	}
}

func TestRejectedLogsPrefixAndDepth(t *testing.T) {
	r, site := newLocalRobot(t, 4)
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	var prefix, depth int
	for _, rej := range st.Rejected {
		switch rej.Reason {
		case "prefix":
			prefix++
			if strings.HasPrefix(rej.URL, "http://webserv/") {
				t.Errorf("internal link rejected by prefix: %s", rej.URL)
			}
		case "depth":
			depth++
		default:
			t.Errorf("unknown rejection reason %q", rej.Reason)
		}
	}
	if prefix == 0 {
		t.Error("no prefix rejections (external links missed)")
	}
	if depth == 0 {
		t.Error("no depth rejections (depth constraint idle)")
	}
	// The de-duplicated prefix set covers every generated external link
	// reachable within the crawl.
	rp := st.RejectedByPrefix()
	seen := map[string]bool{}
	for _, l := range rp {
		if seen[l.URL] {
			t.Errorf("duplicate in RejectedByPrefix: %s", l.URL)
		}
		seen[l.URL] = true
	}
}

func TestTypeAndAgeStatistics(t *testing.T) {
	r, site := newLocalRobot(t, 4)
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range st.TypeCounts {
		total += n
	}
	if total != st.PagesVisited {
		t.Errorf("type counts sum %d, pages %d", total, st.PagesVisited)
	}
	if st.TypeCounts["text/html"] == 0 {
		t.Error("no HTML pages classified")
	}
	if len(st.TypeCounts) < 2 {
		t.Errorf("type mix too uniform: %v", st.TypeCounts)
	}
	ages := 0
	for _, n := range st.AgeBuckets {
		ages += n
	}
	if ages != st.PagesVisited {
		t.Errorf("age buckets sum %d, pages %d", ages, st.PagesVisited)
	}
	if st.AgeBuckets[3] == 0 {
		t.Error("no old documents in a 1500-day age range")
	}
}

func TestDepthConstraintShrinksCrawl(t *testing.T) {
	shallow, site := newLocalRobot(t, 2)
	st2, err := shallow.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	deep, _ := newLocalRobot(t, 4)
	st4, err := deep.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if st2.PagesVisited >= st4.PagesVisited {
		t.Errorf("depth 2 visited %d, depth 4 visited %d",
			st2.PagesVisited, st4.PagesVisited)
	}
}

func TestInstabilityBeyondDepth4(t *testing.T) {
	// "Webbot became unstable with a search tree deeper than 4." A
	// raised stability limit (a fixed robot) permits deeper crawls.
	r, site := newLocalRobot(t, 5, WithStableDepth(8))
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesVisited <= 917 {
		t.Errorf("depth-5 crawl visited %d, want > 917", st.PagesVisited)
	}
}

func TestRobotValidationErrors(t *testing.T) {
	r := New(nil, WithMaxDepth(4))
	if _, err := r.RunCtx(context.Background(), "http://webserv/"); err == nil {
		t.Error("fetcherless robot ran")
	}
}

func TestCrawlDeterministic(t *testing.T) {
	a, site := newLocalRobot(t, 4)
	b, _ := newLocalRobot(t, 4)
	sa, err := a.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if sa.PagesVisited != sb.PagesVisited || sa.BytesFetched != sb.BytesFetched ||
		sa.Elapsed != sb.Elapsed || len(sa.Invalid) != len(sb.Invalid) {
		t.Errorf("crawls differ: %+v vs %+v", sa, sb)
	}
}

func TestRemoteCrawlSlowerThanLocal(t *testing.T) {
	// The heart of E1: same crawl, loopback vs LAN link.
	local, site := newLocalRobot(t, 4)
	stLocal, err := local.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := siteRobot(site, simnet.LAN100, 4)
	stRemote, err := remote.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if stLocal.Elapsed >= stRemote.Elapsed {
		t.Errorf("local crawl (%v) not faster than remote (%v)",
			stLocal.Elapsed, stRemote.Elapsed)
	}
	if stLocal.PagesVisited != stRemote.PagesVisited {
		t.Errorf("crawl coverage differs: %d vs %d",
			stLocal.PagesVisited, stRemote.PagesVisited)
	}
}

func TestValidateLinks(t *testing.T) {
	r, site := newLocalRobot(t, 4)
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewVirtual()
	chk := &websim.ExternalChecker{
		Universe: &websim.Universe{Origin: site},
		Link:     simnet.WAN10,
		Clock:    clock,
	}
	invalid, err := ValidateLinks(chk, st.RejectedByPrefix())
	if err != nil {
		t.Fatal(err)
	}
	deadSet := map[string]bool{}
	for _, d := range site.DeadExternalLinks() {
		deadSet[d] = true
	}
	for _, l := range invalid {
		if !deadSet[l.URL] {
			t.Errorf("live external reported dead: %s", l.URL)
		}
	}
	// Every reachable dead external found by the crawl must be reported.
	for _, rej := range st.RejectedByPrefix() {
		if deadSet[rej.URL] {
			found := false
			for _, l := range invalid {
				if l.URL == rej.URL {
					found = true
				}
			}
			if !found {
				t.Errorf("dead external missed: %s", rej.URL)
			}
		}
	}
	if clock.Now() == 0 {
		t.Error("validation charged no time")
	}
}
