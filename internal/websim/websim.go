// Package websim is the synthetic web substrate of the case study (§5).
//
// The paper's experiment crawls a real departmental web server: 917 HTML
// pages totalling 3 MB, reached at search-tree depth ≤ 4, with links
// pointing outside the server (rejected by the robot's prefix constraint)
// and some invalid links to be mined. websim generates a deterministic
// site with exactly those observable properties from a seed, and serves
// it through a cost model that charges request/transfer/processing time
// to virtual clocks — locally (loopback) or across a simnet link — so the
// local-versus-remote comparison of the paper is reproducible on a
// laptop.
package websim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"tax/internal/simnet"
	"tax/internal/vclock"
)

// Link is one anchor on a page.
type Link struct {
	// URL is absolute ("http://host/path").
	URL string
	// Referrer is the URL of the page holding the link.
	Referrer string
}

// ContentType classifies a document, as the Webbot's statistics do.
type ContentType string

// Content types the generator produces.
const (
	TypeHTML  ContentType = "text/html"
	TypeImage ContentType = "image/gif"
	TypePDF   ContentType = "application/pdf"
	TypePlain ContentType = "text/plain"
)

// Page is one synthetic document.
type Page struct {
	// URL is the page's absolute address.
	URL string
	// Size is the page's size in bytes (what a fetch transfers).
	Size int
	// Depth is the page's distance from the root in the generator tree.
	Depth int
	// Type is the document's content type (non-HTML pages carry no
	// links).
	Type ContentType
	// AgeDays is the document's age at crawl time; the robot histograms
	// it ("statistics on web pages such as link validity, age, and
	// type").
	AgeDays int
	// Links are the page's outgoing anchors, in generation order.
	Links []Link
	// Body is the page's literal text, set only for documents whose
	// content matters to the crawler (today: /robots.txt). Ordinary
	// pages carry sizes, not bytes.
	Body string
}

// SiteSpec parameterizes site generation. The zero value is not useful;
// use CaseStudySpec for the paper's workload.
type SiteSpec struct {
	// Host is the site's host name in URLs.
	Host string
	// Seed drives every random choice; equal specs generate equal sites.
	Seed int64
	// Pages is the number of pages reachable within MaxDepth.
	Pages int
	// MaxDepth is the deepest level the main page tree occupies.
	MaxDepth int
	// ExtraDepth adds pages below MaxDepth (reachable only by a deeper
	// crawl, exercising the robot's depth constraint).
	ExtraDepth int
	// ExtraPages is how many pages live beyond MaxDepth.
	ExtraPages int
	// TotalBytes is the approximate total size of the main tree.
	TotalBytes int
	// DeadLinkRate is the fraction of pages carrying one dead internal
	// link (the mining target).
	DeadLinkRate float64
	// ExternalRate is the fraction of pages carrying one external link
	// (rejected by the robot's prefix constraint; validated in the
	// wrapper's second pass).
	ExternalRate float64
	// ExternalDeadRate is the fraction of external links that are dead.
	ExternalDeadRate float64
	// ExternalHosts are the hosts external links point to.
	ExternalHosts []string
}

// CaseStudySpec is the paper's workload: 917 pages, ~3 MB, depth ≤ 4.
func CaseStudySpec(host string) SiteSpec {
	return SiteSpec{
		Host:             host,
		Seed:             1999, // ICDCS 2000 vintage
		Pages:            917,
		MaxDepth:         4,
		ExtraDepth:       3,
		ExtraPages:       200,
		TotalBytes:       3 << 20,
		DeadLinkRate:     0.05,
		ExternalRate:     0.15,
		ExternalDeadRate: 0.25,
		ExternalHosts:    []string{"www.uit.no", "www.cornell.edu", "www.w3.org"},
	}
}

// Site is a generated web site.
type Site struct {
	// Host is the site's host name.
	Host string
	// Root is the topmost index page's URL.
	Root  string
	pages map[string]*doc // by URL
	// externalAlive records, for every external URL generated into the
	// site, whether the (simulated) remote end serves it.
	externalAlive map[string]bool
	// deadInternal lists the generated dead internal link URLs.
	deadInternal map[string]bool
	totalBytes   int
	// robots is the generated /robots.txt document. It lives outside
	// the pages map so the page-count and byte-count contracts of the
	// site are untouched by its existence.
	robots *doc
	// robotsDisallow lists the page URLs the robots file disallows for
	// well-behaved crawlers (sorted).
	robotsDisallow []string
	// robotsDelay is the Crawl-delay the robots file requests.
	robotsDelay time.Duration
}

// doc is one document the site serves: the page, and the Response
// every fetch of it returns. The response lives beside the page, not
// in it, so a copied Page carries no Response pointing back at the
// original.
type doc struct {
	page Page
	resp Response
}

// Generate builds a site from a spec, deterministically.
func Generate(spec SiteSpec) (*Site, error) {
	if spec.Host == "" {
		return nil, errors.New("websim: spec needs a host")
	}
	if spec.Pages < 1 || spec.MaxDepth < 1 {
		return nil, fmt.Errorf("websim: bad spec: %d pages, depth %d", spec.Pages, spec.MaxDepth)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Lay out the main tree level by level so every page is reachable
	// within MaxDepth. Level sizes follow a geometric profile summing to
	// spec.Pages. The deep pages below it exist only when the tree
	// reaches MaxDepth (see deepParents), so the page count is known
	// here and every page is a slot of one slice.
	levels := levelSizes(spec.Pages, spec.MaxDepth)
	extra := 0
	if spec.ExtraDepth > 0 && levels[spec.MaxDepth] > 0 {
		extra = max(spec.ExtraPages, 0)
	}
	docs := make([]doc, spec.Pages+extra)
	s := &Site{
		Host:          spec.Host,
		Root:          "http://" + spec.Host + "/index.html",
		pages:         make(map[string]*doc, len(docs)),
		externalAlive: make(map[string]bool),
		deadInternal:  make(map[string]bool),
	}
	n := 0
	add := func(p Page) *Page {
		d := &docs[n]
		n++
		d.page = p
		s.pages[p.URL] = d
		return &d.page
	}
	meanSize := spec.TotalBytes / spec.Pages
	var prev, lastNonEmpty []*Page
	pageNo := 0
	hostURL := "http://" + spec.Host
	for depth, count := range levels {
		cur := make([]*Page, 0, count)
		dir := hostURL + "/d" + strconv.Itoa(depth) + "/p"
		for i := 0; i < count; i++ {
			url := s.Root
			if pageNo > 0 {
				url = pageURL(dir, pageNo)
			}
			p := add(Page{URL: url, Depth: depth, Size: pageSize(rng, meanSize)})
			s.totalBytes += p.Size
			cur = append(cur, p)
			if depth > 0 {
				// Small sites may leave intermediate levels empty; hang
				// children off the deepest populated level instead.
				parents := prev
				if len(parents) == 0 {
					parents = lastNonEmpty
				}
				parent := parents[rng.Intn(len(parents))]
				parent.Links = append(parent.Links, Link{URL: url, Referrer: parent.URL})
			}
			pageNo++
		}
		if len(cur) > 0 {
			lastNonEmpty = cur
		}
		prev = cur
	}

	// Pages beyond the robot's depth: children of the deepest populated
	// level. Skipped when the main tree never reached MaxDepth (tiny
	// sites) — hanging "deep" pages off shallow parents would pull them
	// inside the crawl radius and break the page-count contract.
	deepParents := lastNonEmpty
	if len(deepParents) > 0 && deepParents[0].Depth < spec.MaxDepth {
		deepParents = nil
	}
	deepDirs := make([]string, max(spec.ExtraDepth, 0))
	for i := range deepDirs {
		deepDirs[i] = hostURL + "/deep" + strconv.Itoa(spec.MaxDepth+1+i) + "/p"
	}
	for i := 0; i < spec.ExtraPages && spec.ExtraDepth > 0 && len(deepParents) > 0; i++ {
		level := rng.Intn(spec.ExtraDepth)
		depth := spec.MaxDepth + 1 + level
		url := pageURL(deepDirs[level], pageNo)
		add(Page{URL: url, Depth: depth, Size: pageSize(rng, meanSize)})
		parent := deepParents[rng.Intn(len(deepParents))]
		parent.Links = append(parent.Links, Link{URL: url, Referrer: parent.URL})
		pageNo++
	}

	// Normalize the main tree to the spec's total size (the draw above
	// fixes the spread; this fixes the sum, keeping the workload at the
	// paper's 3 MB).
	if spec.TotalBytes > 0 {
		mainBytes := 0
		for i := range docs {
			if p := &docs[i].page; p.Depth <= spec.MaxDepth {
				mainBytes += p.Size
			}
		}
		factor := float64(spec.TotalBytes) / float64(mainBytes)
		s.totalBytes = 0
		for i := range docs {
			p := &docs[i].page
			if p.Depth <= spec.MaxDepth {
				p.Size = int(float64(p.Size) * factor)
				if p.Size < 128 {
					p.Size = 128
				}
			}
			s.totalBytes += p.Size
		}
	}

	// Sprinkle dead internal links, external links and cross links over
	// the main tree (deterministic order: sorted URLs).
	urls := make([]string, 0, len(s.pages))
	byDepth := make([][]string, spec.MaxDepth+1)
	for u, d := range s.pages {
		urls = append(urls, u)
		if depth := d.page.Depth; depth <= spec.MaxDepth {
			byDepth[depth] = append(byDepth[depth], u)
		}
	}
	sort.Strings(urls)
	for _, level := range byDepth {
		sort.Strings(level)
	}
	deadNo, extNo := 0, 0
	deadDir := hostURL + "/missing/m"
	extDirs := make([]string, len(spec.ExternalHosts))
	for i, h := range spec.ExternalHosts {
		extDirs[i] = "http://" + h + "/page"
	}
	for _, u := range urls {
		p := &s.pages[u].page
		// Every document gets an age; childless documents are sometimes
		// non-HTML assets (images, PDFs, plain text) — the type mix the
		// Webbot's statistics classify.
		p.AgeDays = 1 + rng.Intn(1500)
		p.Type = TypeHTML
		if len(p.Links) == 0 {
			switch roll := rng.Float64(); {
			case roll < 0.15:
				p.Type = TypeImage
			case roll < 0.25:
				p.Type = TypePlain
			case roll < 0.30:
				p.Type = TypePDF
			}
		}
		if p.Depth > spec.MaxDepth {
			continue
		}
		if p.Type != TypeHTML {
			continue // assets carry no links
		}
		// Dead internal links hang off pages above the deepest level so
		// a depth-constrained crawl still fetches (and detects) them;
		// the paper's robot only finds what it can reach.
		if p.Depth < spec.MaxDepth && rng.Float64() < spec.DeadLinkRate {
			dead := pageURL(deadDir, deadNo)
			deadNo++
			s.deadInternal[dead] = true
			p.Links = append(p.Links, Link{URL: dead, Referrer: p.URL})
		}
		if rng.Float64() < spec.ExternalRate && len(spec.ExternalHosts) > 0 {
			ext := pageURL(extDirs[rng.Intn(len(extDirs))], extNo)
			extNo++
			alive := rng.Float64() >= spec.ExternalDeadRate
			s.externalAlive[ext] = alive
			p.Links = append(p.Links, Link{URL: ext, Referrer: p.URL})
		}
		// Occasional cross link back up the tree (cycle fodder for the
		// robot's visited-set logic). Targets sit at the same or a
		// shallower level, so cross links never shorten any page's best
		// path and the depth-constrained page count stays exact.
		if rng.Float64() < 0.10 {
			lvl := byDepth[rng.Intn(p.Depth+1)]
			t := lvl[rng.Intn(len(lvl))]
			p.Links = append(p.Links, Link{URL: t, Referrer: p.URL})
		}
	}

	// Emit /robots.txt last: its draws continue the same rng *after*
	// every page draw above, so a given seed generates a byte-identical
	// page tree whether or not a crawler ever reads the robots file.
	s.generateRobots(spec, rng, urls)
	for i := range docs {
		docs[i].respond()
	}
	return s, nil
}

// respond builds the Response every fetch of the document returns,
// once the page's size is final. It points at the page, so a fetch
// reads the page's metadata as it is then (SetAgeDays).
func (d *doc) respond() {
	d.resp = Response{URL: d.page.URL, Status: StatusOK, Page: &d.page, Bytes: d.page.Size}
}

// generateRobots writes the site's robots.txt: a blanket ban for the
// "badbot" agent, and for everyone else a seeded Crawl-delay plus a
// seeded stride of disallowed deep pages — enough to change a polite
// crawl's statistics measurably without gutting the workload.
func (s *Site) generateRobots(spec SiteSpec, rng *rand.Rand, sortedURLs []string) {
	s.robotsDelay = time.Duration(1+rng.Intn(4)) * 250 * time.Millisecond
	stride := 29 + rng.Intn(13)
	prefix := "http://" + spec.Host
	var b strings.Builder
	fmt.Fprintf(&b, "# robots.txt for %s (seed %d)\n\n", spec.Host, spec.Seed)
	b.WriteString("User-agent: badbot\nDisallow: /\n\n")
	b.WriteString("User-agent: *\n")
	fmt.Fprintf(&b, "Crawl-delay: %g\n", s.robotsDelay.Seconds())
	n := 0
	for _, u := range sortedURLs {
		p := &s.pages[u].page
		if p.Depth < 2 || p.Depth > spec.MaxDepth {
			continue
		}
		if n++; n%stride != 0 {
			continue
		}
		s.robotsDisallow = append(s.robotsDisallow, u)
		fmt.Fprintf(&b, "Disallow: %s\n", strings.TrimPrefix(u, prefix))
	}
	body := b.String()
	s.robots = &doc{page: Page{
		URL:     s.RobotsURL(),
		Size:    len(body),
		Type:    TypePlain,
		AgeDays: 1,
		Body:    body,
	}}
	s.robots.respond()
}

// pageURL is the generator's URL shape: dir, then n as fmt's %04d, then
// ".html".
func pageURL(dir string, n int) string {
	var buf [128]byte
	b := appendPageNo(append(buf[:0], dir...), n)
	return string(append(b, ".html"...))
}

// appendPageNo appends n >= 0 as fmt's %04d does: zero-padded to four
// digits, longer numbers in full.
func appendPageNo(b []byte, n int) []byte {
	for pad := 1000; pad > 1 && n < pad; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// levelSizes splits n pages over depths 0..maxDepth with a geometric
// growth profile (level 0 holds the single root).
func levelSizes(n, maxDepth int) []int {
	sizes := make([]int, maxDepth+1)
	sizes[0] = 1
	remaining := n - 1
	// Geometric weights 1, r, r^2 ... chosen so deeper levels are larger,
	// like real site trees.
	weights := make([]float64, maxDepth)
	total := 0.0
	r := 2.8
	w := 1.0
	for i := range weights {
		weights[i] = w
		total += w
		w *= r
	}
	assigned := 0
	for i := 1; i <= maxDepth; i++ {
		c := int(float64(remaining) * weights[i-1] / total)
		if i == maxDepth {
			c = remaining - assigned
		}
		if c < 1 && remaining > assigned {
			c = 1
		}
		sizes[i] = c
		assigned += c
	}
	return sizes
}

// pageSize draws a page size around the mean with realistic spread.
func pageSize(rng *rand.Rand, mean int) int {
	if mean < 256 {
		mean = 256
	}
	// Two-point mix: mostly small pages, a tail of large ones.
	base := mean / 2
	size := base + rng.Intn(mean)
	if rng.Float64() < 0.05 {
		size += rng.Intn(mean * 8)
	}
	return size
}

// Pages returns the number of pages on the site (all depths).
func (s *Site) Pages() int { return len(s.pages) }

// PagesWithinDepth returns how many pages sit at depth ≤ d.
func (s *Site) PagesWithinDepth(d int) int {
	n := 0
	for _, doc := range s.pages {
		if doc.page.Depth <= d {
			n++
		}
	}
	return n
}

// BytesWithinDepth returns the total size of pages at depth ≤ d.
func (s *Site) BytesWithinDepth(d int) int {
	n := 0
	for _, doc := range s.pages {
		if doc.page.Depth <= d {
			n += doc.page.Size
		}
	}
	return n
}

// DeadInternalLinks returns the generated dead internal URLs (sorted).
func (s *Site) DeadInternalLinks() []string {
	out := make([]string, 0, len(s.deadInternal))
	for u := range s.deadInternal {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// DeadExternalLinks returns the generated dead external URLs (sorted).
func (s *Site) DeadExternalLinks() []string {
	var out []string
	for u, alive := range s.externalAlive {
		if !alive {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// ExternalLinks returns every generated external URL (sorted).
func (s *Site) ExternalLinks() []string {
	out := make([]string, 0, len(s.externalAlive))
	for u := range s.externalAlive {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Fingerprint is the SHA-256 of the site's canonical dump: host, root
// and total size; every page in URL order with its size, depth, type,
// age and links; then robots.txt with its crawl delay and disallow list,
// the dead internal links, the external links and the dead external
// links. Equal fingerprints mean sites no crawl can tell apart, which is
// what pins the generator's output across refactors and shows that a
// crawl left a shared site as it found it.
func (s *Site) Fingerprint() [sha256.Size]byte {
	urls := make([]string, 0, len(s.pages))
	for u := range s.pages {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	h := sha256.New()
	fmt.Fprintf(h, "site %s %s %d\n", s.Host, s.Root, s.totalBytes)
	for _, u := range urls {
		p := &s.pages[u].page
		fmt.Fprintf(h, "page %s %d %d %s %d %d\n", p.URL, p.Size, p.Depth, p.Type, p.AgeDays, len(p.Links))
		for _, l := range p.Links {
			fmt.Fprintf(h, "\tlink %s %s\n", l.URL, l.Referrer)
		}
	}
	fmt.Fprintf(h, "robots %d %d\n%s", s.robotsDelay, len(s.RobotsTxt()), s.RobotsTxt())
	for _, list := range []struct {
		name string
		urls []string
	}{
		{"disallow", s.robotsDisallow},
		{"dead-internal", s.DeadInternalLinks()},
		{"external", s.ExternalLinks()},
		{"dead-external", s.DeadExternalLinks()},
	} {
		fmt.Fprintf(h, "%s %d\n", list.name, len(list.urls))
		for _, u := range list.urls {
			fmt.Fprintf(h, "\t%s\n", u)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Lookup returns the page at url, or nil.
func (s *Site) Lookup(url string) *Page {
	if d := s.pages[url]; d != nil {
		return &d.page
	}
	return nil
}

// RobotsURL returns the site's robots.txt address.
func (s *Site) RobotsURL() string { return "http://" + s.Host + "/robots.txt" }

// RobotsTxt returns the generated robots.txt body ("" on legacy sites
// built before robots generation).
func (s *Site) RobotsTxt() string {
	if s.robots == nil {
		return ""
	}
	return s.robots.page.Body
}

// RobotsDisallowed returns the page URLs robots.txt disallows for the
// wildcard agent group (sorted).
func (s *Site) RobotsDisallowed() []string {
	out := make([]string, len(s.robotsDisallow))
	copy(out, s.robotsDisallow)
	return out
}

// RobotsCrawlDelay returns the Crawl-delay robots.txt requests.
func (s *Site) RobotsCrawlDelay() time.Duration { return s.robotsDelay }

// SetAgeDays mutates one page's age in place, reporting whether the
// page exists. Recrawl tests use it to model content churn between
// crawl cycles: the page's revalidation digest changes while the site
// stays otherwise identical.
func (s *Site) SetAgeDays(url string, age int) bool {
	d := s.pages[url]
	if d == nil {
		return false
	}
	d.page.AgeDays = age
	return true
}

// HTTP status codes the simulated server produces.
const (
	StatusOK       = 200
	StatusNotFound = 404
)

// Response is one fetch result.
type Response struct {
	// URL echoes the request.
	URL string
	// Status is the HTTP-like status code.
	Status int
	// Page is the fetched document (nil on 404).
	Page *Page
	// Bytes is the number of body bytes transferred.
	Bytes int
}

// Server serves a site with a processing-cost model.
type Server struct {
	// Site is the content served.
	Site *Site
	// PerRequest is the server-side fixed cost per request.
	PerRequest time.Duration
	// PerByte is the server-side cost per body byte.
	PerByte time.Duration
}

// DefaultServer wraps a site with the calibrated 1999-workstation cost
// model (see EXPERIMENTS.md): ~0.7 ms of request handling plus 200 ns per
// body byte (≈5 MB/s of file-system and HTTP work).
func DefaultServer(site *Site) *Server {
	return &Server{
		Site:       site,
		PerRequest: 700 * time.Microsecond,
		PerByte:    200 * time.Nanosecond,
	}
}

// process computes the server-side time for a response.
func (s *Server) process(resp *Response) time.Duration {
	return s.PerRequest + time.Duration(resp.Bytes)*s.PerByte
}

// serve resolves a URL to a response (no cost charging; Client does
// that). A page's response is the one Generate built for it, shared by
// every fetch; a 404 is fresh and echoes the request.
func (s *Server) serve(url string) *Response {
	if d := s.Site.pages[url]; d != nil {
		return &d.resp
	}
	if d := s.Site.robots; d != nil && url == s.Site.RobotsURL() {
		return &d.resp
	}
	return &Response{URL: url, Status: StatusNotFound, Bytes: 256}
}

// requestSize is the simulated HTTP request size in bytes.
const requestSize = 220

// Fetcher is what a robot crawls through.
type Fetcher interface {
	// Fetch retrieves one URL, charging simulated time. The Response
	// may be shared with every other fetch of the URL, concurrent ones
	// included, and is read-only: a caller copies what it keeps.
	Fetch(url string) (*Response, error)
}

// HeadFetcher is a Fetcher that can probe a URL's metadata without
// transferring the body — the revalidation probe behind incremental
// re-crawl. The returned Response carries the status and the page's
// metadata but Bytes is zero: only headers crossed the wire.
type HeadFetcher interface {
	Head(url string) (*Response, error)
}

// ForkableFetcher is a Fetcher that supports concurrent crawling. Fork
// yields an independent clone whose simulated costs are charged to the
// given clock instead of the parent's, so worker goroutines can fetch
// without sharing the parent's clock or counters. Replay then charges
// the parent for one fetch a fork served, leaving the parent's clock
// and traffic counters exactly as if it had performed the fetch itself
// — which is what keeps a parallel-prefetched crawl's Stats identical
// to the serial crawl's.
type ForkableFetcher interface {
	Fetcher
	// Fork returns an independent fetcher charging costs to clock.
	Fork(clock vclock.Clock) Fetcher
	// Replay charges the parent for one fetch previously served by a
	// fork (resp and the fork-measured cost). resp is lent for the
	// call: the caller reuses it afterwards, so Replay must not keep it.
	Replay(resp *Response, cost time.Duration)
}

// Client fetches from a Server across a link profile, charging the full
// request/response cost to a clock — the sequential-crawler cost model:
//
//	request transfer + latency + server processing + response transfer +
//	latency
type Client struct {
	// Server is the origin served; fetches of other hosts' URLs return
	// 404 unless Universe is set.
	Server *Server
	// Universe, when set, resolves external hosts for validation passes.
	Universe *Universe
	// Link is the client→server link profile.
	Link simnet.Profile
	// Clock accumulates the elapsed simulated time.
	Clock vclock.Clock

	// Requests and BytesFetched count traffic through this client.
	Requests     int
	BytesFetched int
}

var (
	_ ForkableFetcher = (*Client)(nil)
	_ HeadFetcher     = (*Client)(nil)
)

// Fork implements ForkableFetcher: the clone shares the server, the
// universe and the link profile but charges the given clock and keeps
// its own traffic counters. The cost model is stateless per fetch, so a
// fork observes exactly the costs the parent would have.
func (c *Client) Fork(clock vclock.Clock) Fetcher {
	return &Client{Server: c.Server, Universe: c.Universe, Link: c.Link, Clock: clock}
}

// Replay implements ForkableFetcher: it applies one fork-served fetch
// to the parent's clock and counters.
func (c *Client) Replay(resp *Response, cost time.Duration) {
	c.Clock.Advance(cost)
	c.Requests++
	c.BytesFetched += resp.Bytes
}

// Fetch implements Fetcher.
func (c *Client) Fetch(url string) (*Response, error) {
	if c.Clock == nil {
		return nil, errors.New("websim: client has no clock")
	}
	resp := c.resolve(url)
	// Request travels to the server...
	cost := c.Link.TransferTime(requestSize) + c.Link.Latency
	// ...the server thinks...
	cost += c.Server.process(resp)
	// ...the response travels back.
	cost += c.Link.TransferTime(resp.Bytes) + c.Link.Latency
	c.Clock.Advance(cost)
	c.Requests++
	c.BytesFetched += resp.Bytes
	return resp, nil
}

// Head implements HeadFetcher: same round trip as Fetch, but the
// response body stays on the server — the client pays the request
// transfer, the server's fixed per-request cost, and a 256-byte header
// response. Bytes is zero; the page metadata still comes back (it is
// what headers are).
func (c *Client) Head(url string) (*Response, error) {
	if c.Clock == nil {
		return nil, errors.New("websim: client has no clock")
	}
	resp := c.resolve(url)
	head := &Response{URL: resp.URL, Status: resp.Status, Page: resp.Page}
	cost := c.Link.TransferTime(requestSize) + c.Link.Latency +
		c.Server.PerRequest +
		c.Link.TransferTime(256) + c.Link.Latency
	c.Clock.Advance(cost)
	c.Requests++
	return head, nil
}

func (c *Client) resolve(url string) *Response {
	if strings.HasPrefix(url, "http://"+c.Server.Site.Host+"/") {
		return c.Server.serve(url)
	}
	if c.Universe != nil {
		return c.Universe.resolveExternal(url)
	}
	return &Response{URL: url, Status: StatusNotFound, Bytes: 256}
}

// Universe resolves URLs outside the origin site: the case study's
// second pass validates links pointing at other hosts. External fetches
// are cheap to resolve (we only need alive/dead) but expensive to reach,
// which is exactly what the WAN profile charges.
type Universe struct {
	// Origin is the site whose externalAlive table answers liveness.
	Origin *Site
}

func (u *Universe) resolveExternal(url string) *Response {
	alive, known := u.Origin.externalAlive[url]
	if known && alive {
		return &Response{URL: url, Status: StatusOK, Bytes: 2048}
	}
	return &Response{URL: url, Status: StatusNotFound, Bytes: 256}
}

// ExternalChecker fetches external URLs across a WAN profile, charging a
// clock; used by the second validation pass.
type ExternalChecker struct {
	// Universe answers liveness.
	Universe *Universe
	// Link is the path to the outside world.
	Link simnet.Profile
	// Clock accumulates elapsed time.
	Clock vclock.Clock
	// Requests counts checks performed.
	Requests int
}

var _ Fetcher = (*ExternalChecker)(nil)

// Fetch implements Fetcher for external URLs (HEAD-style check).
func (e *ExternalChecker) Fetch(url string) (*Response, error) {
	if e.Clock == nil {
		return nil, errors.New("websim: checker has no clock")
	}
	resp := e.Universe.resolveExternal(url)
	cost := e.Link.TransferTime(requestSize) + e.Link.Latency +
		e.Link.TransferTime(256) + e.Link.Latency // headers only
	e.Clock.Advance(cost)
	e.Requests++
	return resp, nil
}
