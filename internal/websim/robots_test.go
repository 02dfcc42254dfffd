package websim

import (
	"strings"
	"testing"

	"tax/internal/vclock"
)

func TestGenerateEmitsSeededRobots(t *testing.T) {
	s, err := Generate(CaseStudySpec("webserv"))
	if err != nil {
		t.Fatal(err)
	}
	body := s.RobotsTxt()
	if body == "" {
		t.Fatal("no robots.txt generated")
	}
	if !strings.Contains(body, "User-agent: badbot\nDisallow: /\n") {
		t.Fatalf("robots.txt missing badbot ban:\n%s", body)
	}
	if !strings.Contains(body, "Crawl-delay: ") || s.robotsCrawlDelay() <= 0 {
		t.Fatalf("robots.txt missing crawl delay:\n%s", body)
	}
	dis := s.RobotsDisallowed()
	if len(dis) == 0 {
		t.Fatal("case-study robots.txt disallows nothing")
	}
	for _, u := range dis {
		p := s.Lookup(u)
		if p == nil {
			t.Fatalf("disallowed URL %q is not a page", u)
		}
		if p.Depth < 2 {
			t.Fatalf("disallowed URL %q at depth %d; robots must not block the shallow tree", u, p.Depth)
		}
		if !strings.Contains(body, "Disallow: "+strings.TrimPrefix(u, "http://webserv")+"\n") {
			t.Fatalf("disallowed URL %q missing from body", u)
		}
	}
	// Deterministic: same seed, same file.
	s2, _ := Generate(CaseStudySpec("webserv"))
	if s2.RobotsTxt() != body {
		t.Fatal("robots.txt differs across same-seed generations")
	}
	// The robots page is served but is not part of the site contract.
	if s.Lookup(s.RobotsURL()) != nil {
		t.Fatal("robots.txt leaked into the pages map")
	}
	srv := DefaultServer(s)
	resp := srv.serve(s.RobotsURL())
	if resp.Status != StatusOK || resp.Page == nil || resp.Page.Body != body {
		t.Fatalf("serve(robots) = %+v", resp)
	}
}

func TestClientHeadChargesHeadersOnly(t *testing.T) {
	s, _ := Generate(CaseStudySpec("webserv"))
	clock := vclock.NewVirtual()
	c := &Client{Server: DefaultServer(s), Clock: clock}
	full, err := c.Fetch(s.Root)
	if err != nil {
		t.Fatal(err)
	}
	fetchCost := clock.Now()
	before := clock.Now()
	head, err := c.Head(s.Root)
	if err != nil {
		t.Fatal(err)
	}
	headCost := clock.Now() - before
	if head.Status != StatusOK || head.Page != full.Page {
		t.Fatalf("head = %+v", head)
	}
	if head.Bytes != 0 {
		t.Fatalf("head transferred %d body bytes", head.Bytes)
	}
	if headCost >= fetchCost {
		t.Fatalf("head cost %v not cheaper than fetch cost %v", headCost, fetchCost)
	}
	if c.Requests != 2 {
		t.Fatalf("requests = %d, want 2", c.Requests)
	}
	if c.BytesFetched != full.Bytes {
		t.Fatalf("head inflated byte counter: %d != %d", c.BytesFetched, full.Bytes)
	}
}

func TestSetAgeDays(t *testing.T) {
	s, _ := Generate(CaseStudySpec("webserv"))
	if !s.SetAgeDays(s.Root, 9999) {
		t.Fatal("SetAgeDays missed the root")
	}
	if s.Lookup(s.Root).AgeDays != 9999 {
		t.Fatal("age not mutated")
	}
	if s.SetAgeDays("http://webserv/nope.html", 1) {
		t.Fatal("SetAgeDays invented a page")
	}
}
