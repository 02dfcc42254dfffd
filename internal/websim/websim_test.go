package websim

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tax/internal/simnet"
	"tax/internal/vclock"
)

func caseStudySite(t *testing.T) *Site {
	t.Helper()
	site, err := Generate(CaseStudySpec("webserv"))
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(SiteSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Generate(SiteSpec{Host: "h", Pages: 0, MaxDepth: 4}); err == nil {
		t.Error("zero pages accepted")
	}
}

func TestCaseStudyWorkloadShape(t *testing.T) {
	// The paper: "the Webbot scanned 917 html pages containing 3 MBytes"
	// with a search tree limited to depth 4.
	site := caseStudySite(t)
	if got := site.PagesWithinDepth(4); got != 917 {
		t.Errorf("pages within depth 4 = %d, want 917", got)
	}
	bytes := site.BytesWithinDepth(4)
	lo, hi := int(2.5*float64(1<<20)), int(3.5*float64(1<<20))
	if bytes < lo || bytes > hi {
		t.Errorf("bytes within depth 4 = %d, want ≈3MB (%d..%d)", bytes, lo, hi)
	}
	// Deeper pages exist (the robot's depth limit must matter).
	if site.Pages() <= 917 {
		t.Errorf("no pages beyond depth 4: total %d", site.Pages())
	}
	// Mining targets exist.
	if len(site.DeadInternalLinks()) == 0 {
		t.Error("no dead internal links generated")
	}
	if len(site.ExternalLinks()) == 0 {
		t.Error("no external links generated")
	}
	if len(site.DeadExternalLinks()) == 0 {
		t.Error("no dead external links generated")
	}
	// Dead externals are a strict subset of externals.
	if len(site.DeadExternalLinks()) >= len(site.ExternalLinks()) {
		t.Error("every external link is dead")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := caseStudySite(t)
	b := caseStudySite(t)
	if a.Pages() != b.Pages() || a.totalBytes != b.totalBytes {
		t.Error("same spec, different sites")
	}
	da, db := a.DeadInternalLinks(), b.DeadInternalLinks()
	if strings.Join(da, ",") != strings.Join(db, ",") {
		t.Error("dead links differ between runs")
	}
	// A different seed changes the site.
	spec := CaseStudySpec("webserv")
	spec.Seed = 7
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.totalBytes == a.totalBytes {
		t.Error("seed has no effect on sizes")
	}
}

func TestEveryPageReachableWithinDepth(t *testing.T) {
	// BFS from the root must reach every main-tree page within MaxDepth.
	site := caseStudySite(t)
	depth := map[string]int{site.Root: 0}
	frontier := []string{site.Root}
	for len(frontier) > 0 {
		var next []string
		for _, u := range frontier {
			p := site.Lookup(u)
			if p == nil {
				continue
			}
			for _, l := range p.Links {
				if site.Lookup(l.URL) == nil {
					continue // dead or external
				}
				if _, seen := depth[l.URL]; !seen {
					depth[l.URL] = depth[u] + 1
					next = append(next, l.URL)
				}
			}
		}
		frontier = next
	}
	within := 0
	for u, d := range depth {
		p := site.Lookup(u)
		if d <= 4 {
			within++
		}
		if p.Depth > 4 && d <= 4 {
			// Cross links may shorten paths to deep pages; that is fine.
			continue
		}
	}
	if within < 917 {
		t.Errorf("only %d pages reachable within depth 4", within)
	}
}

func TestServerServe(t *testing.T) {
	site := caseStudySite(t)
	srv := DefaultServer(site)
	ok := srv.serve(site.Root)
	if ok.Status != StatusOK || ok.Page == nil || ok.Bytes != ok.Page.Size {
		t.Errorf("root serve: %+v", ok)
	}
	miss := srv.serve("http://webserv/nope.html")
	if miss.Status != StatusNotFound || miss.Page != nil {
		t.Errorf("missing serve: %+v", miss)
	}
}

// TestFetchSharesPageResponse: a page's Response is built once, by
// Generate, after the sizes are normalised, and every fetch of the page
// returns it — the parent's and a fork's, concurrent ones included (run
// under -race, a response filled in on first fetch races here). HEAD
// and 404 answers stay the caller's own.
func TestFetchSharesPageResponse(t *testing.T) {
	site := caseStudySite(t)
	c := &Client{Server: DefaultServer(site), Link: simnet.LAN100, Clock: vclock.NewVirtual()}
	missing := site.DeadInternalLinks()[0] // a 404
	for _, url := range []string{site.Root, site.RobotsURL(), missing} {
		a, err := c.Fetch(url)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := c.Fork(vclock.NewVirtual()).Fetch(url)
		if url == missing {
			if a == b || a.URL != url || b.URL != url || a.Status != StatusNotFound {
				t.Errorf("404s of %s: %p %+v and %p %+v, want two responses echoing it", url, a, a, b, b)
			}
			continue
		}
		if a != b {
			t.Errorf("two fetches of %s returned %p and %p, want one shared response", url, a, b)
		}
		if a.URL != url || a.Status != StatusOK || a.Page == nil || a.Bytes != a.Page.Size {
			t.Errorf("fetch of %s = %+v, want status 200 and Bytes == Page.Size", url, a)
		}
		if p := site.Lookup(url); p != nil && a.Page != p {
			t.Errorf("fetch of %s points at %p, the site's page is %p", url, a.Page, p)
		}
		h, _ := c.Head(url)
		if h == a || h.Bytes != 0 || h.Page != a.Page {
			t.Errorf("HEAD of %s = %p %+v, want its own response, Bytes 0, the same page", url, h, h)
		}
	}
	if got := site.BytesWithinDepth(4); got < 3<<20-917 || got > 3<<20 {
		t.Errorf("normalised main tree holds %d bytes, want 3 MiB less rounding", got)
	}

	root, _ := c.Fetch(site.Root)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fork := c.Fork(vclock.NewVirtual())
			for _, url := range []string{site.Root, site.RobotsURL(), root.Page.Links[0].URL} {
				r, err := fork.Fetch(url)
				if err != nil || r.Bytes != r.Page.Size {
					t.Errorf("concurrent fetch of %s = %+v, %v", url, r, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestGeneratePlacesEveryPage: the pages live in one slice sized from
// the spec, whether or not the tree reaches MaxDepth and so carries
// the deep pages; a miscount would panic or leave a page out.
func TestGeneratePlacesEveryPage(t *testing.T) {
	for pages := 1; pages <= 24; pages++ {
		for depth := 1; depth <= 5; depth++ {
			spec := SiteSpec{Host: "h", Seed: int64(pages), Pages: pages, MaxDepth: depth,
				ExtraDepth: 2, ExtraPages: 7, TotalBytes: 1 << 16}
			site, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := site.PagesWithinDepth(depth); got != pages {
				t.Fatalf("%d pages to depth %d: %d within depth", pages, depth, got)
			}
			if deep := site.Pages() - pages; deep != 0 && deep != spec.ExtraPages {
				t.Fatalf("%d pages to depth %d: %d deep pages, want none or %d", pages, depth, deep, spec.ExtraPages)
			}
			for url := range site.pages {
				if r := DefaultServer(site).serve(url); r.Status != StatusOK || r.Page.URL != url || r.Bytes != r.Page.Size {
					t.Fatalf("%d pages to depth %d: %s serves %+v", pages, depth, url, r)
				}
			}
		}
	}
}

func TestClientChargesCost(t *testing.T) {
	site := caseStudySite(t)
	srv := DefaultServer(site)
	clock := vclock.NewVirtual()
	c := &Client{Server: srv, Link: simnet.LAN100, Clock: clock}

	resp, err := c.Fetch(site.Root)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("status %d", resp.Status)
	}
	want := simnet.LAN100.TransferTime(requestSize) + simnet.LAN100.Latency +
		srv.PerRequest + time.Duration(resp.Bytes)*srv.PerByte +
		simnet.LAN100.TransferTime(resp.Bytes) + simnet.LAN100.Latency
	if clock.Now() != want {
		t.Errorf("charged %v, want %v", clock.Now(), want)
	}
	if c.Requests != 1 || c.BytesFetched != resp.Bytes {
		t.Errorf("counters: %d reqs, %d bytes", c.Requests, c.BytesFetched)
	}
}

func TestLocalFasterThanRemotePerFetch(t *testing.T) {
	site := caseStudySite(t)
	srv := DefaultServer(site)
	local := &Client{Server: srv, Link: simnet.Loopback, Clock: vclock.NewVirtual()}
	remote := &Client{Server: srv, Link: simnet.LAN100, Clock: vclock.NewVirtual()}
	if _, err := local.Fetch(site.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Fetch(site.Root); err != nil {
		t.Fatal(err)
	}
	if local.Clock.Now() >= remote.Clock.Now() {
		t.Errorf("local fetch (%v) not faster than remote (%v)",
			local.Clock.Now(), remote.Clock.Now())
	}
}

func TestClientWithoutClockErrors(t *testing.T) {
	site := caseStudySite(t)
	c := &Client{Server: DefaultServer(site), Link: simnet.LAN100}
	if _, err := c.Fetch(site.Root); err == nil {
		t.Error("clockless client fetched")
	}
	e := &ExternalChecker{Universe: &Universe{Origin: site}, Link: simnet.WAN10}
	if _, err := e.Fetch("http://x/"); err == nil {
		t.Error("clockless checker fetched")
	}
}

func TestExternalChecker(t *testing.T) {
	site := caseStudySite(t)
	u := &Universe{Origin: site}
	chk := &ExternalChecker{Universe: u, Link: simnet.WAN10, Clock: vclock.NewVirtual()}

	ext := site.ExternalLinks()
	dead := map[string]bool{}
	for _, d := range site.DeadExternalLinks() {
		dead[d] = true
	}
	for _, url := range ext[:10] {
		resp, err := chk.Fetch(url)
		if err != nil {
			t.Fatal(err)
		}
		wantStatus := StatusOK
		if dead[url] {
			wantStatus = StatusNotFound
		}
		if resp.Status != wantStatus {
			t.Errorf("%s: status %d, want %d", url, resp.Status, wantStatus)
		}
	}
	if chk.Requests != 10 {
		t.Errorf("requests = %d", chk.Requests)
	}
	if chk.Clock.Now() == 0 {
		t.Error("checker charged no time")
	}
	// Unknown URLs outside the generated set read as dead.
	resp, _ := chk.Fetch("http://never-generated/x.html")
	if resp.Status != StatusNotFound {
		t.Errorf("unknown external status %d", resp.Status)
	}
}

func TestClientResolvesExternalViaUniverse(t *testing.T) {
	site := caseStudySite(t)
	srv := DefaultServer(site)
	c := &Client{Server: srv, Universe: &Universe{Origin: site}, Link: simnet.LAN100, Clock: vclock.NewVirtual()}
	ext := site.ExternalLinks()[0]
	resp, err := c.Fetch(ext)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK && resp.Status != StatusNotFound {
		t.Errorf("external fetch status %d", resp.Status)
	}
	// Without a universe, external URLs 404.
	c2 := &Client{Server: srv, Link: simnet.LAN100, Clock: vclock.NewVirtual()}
	resp2, _ := c2.Fetch(ext)
	if resp2.Status != StatusNotFound {
		t.Errorf("universe-less external status %d", resp2.Status)
	}
}

// Property: level sizes always sum to the page count with one root.
func TestPropLevelSizes(t *testing.T) {
	f := func(pages uint16, depth uint8) bool {
		p := int(pages%5000) + 1
		d := int(depth%6) + 1
		sizes := levelSizes(p, d)
		if sizes[0] != 1 {
			return false
		}
		sum := 0
		for _, s := range sizes {
			if s < 0 {
				return false
			}
			sum += s
		}
		return sum == p || p == 1 && sum == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
