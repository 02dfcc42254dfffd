package webbot

import (
	"context"
	"testing"

	"tax/internal/simnet"
	"tax/internal/websim"
)

// crawl917 runs the paper's full crawl, serially, through a fresh
// client on link.
func crawl917(tb testing.TB, site *websim.Site, link simnet.Profile) {
	r, _ := siteRobot(site, link, 4)
	st, err := r.RunCtx(context.Background(), site.Root)
	if err != nil {
		tb.Fatal(err)
	}
	if st.PagesVisited != 917 {
		tb.Fatalf("pages = %d", st.PagesVisited)
	}
}

// BenchmarkCrawl917 measures the real compute cost of the paper's full
// crawl through this repository's kernel (the simulated time is fixed;
// this is harness throughput).
func BenchmarkCrawl917(b *testing.B) {
	site, err := websim.Generate(websim.CaseStudySpec("webserv"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		crawl917(b, site, simnet.Loopback)
	}
}

func BenchmarkGenerateCaseStudySite(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := websim.Generate(websim.CaseStudySpec("webserv")); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCrawl917Allocs pins the allocations of one serial 917-page crawl
// across LAN100, the stationary half of E1: the frontier's transitions,
// the fetch records and the replay. A fetched URL allocates its record,
// its links and its digest, and a share of the frontier's chunks; a
// crawl that copies its records again, builds a response per fetch, or
// formats on the fetch path shows up here.
func TestCrawl917Allocs(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	site, err := websim.Generate(websim.CaseStudySpec("webserv"))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { crawl917(t, site, simnet.LAN100) })
	t.Logf("serial 917-page crawl: %.0f allocs", allocs)
	// Measured 2,530: 7,176 before the chunked frontier entries and
	// claims, the prebuilt responses and the by-value replay pages, and
	// 9,529 before the one-map frontier and the fmt-free fetch path. The
	// slack absorbs the runtime's own noise.
	const budget = 2540
	if allocs > budget {
		t.Errorf("a serial 917-page crawl costs %.0f allocations, budget %d", allocs, budget)
	}
}

// TestDigestFormat pins the revalidation digest's bytes. Digest is
// persisted in d/ and r/ records, so a record journaled by an earlier
// build must still match a HEAD probe of the unchanged page.
func TestDigestFormat(t *testing.T) {
	for _, tc := range []struct {
		resp *websim.Response
		want string
	}{
		{&websim.Response{Status: websim.StatusOK, Bytes: 3145, Page: &websim.Page{Size: 3145, AgeDays: 17}}, "200|3145|17"},
		{&websim.Response{Status: websim.StatusOK, Page: &websim.Page{Size: 1 << 40, AgeDays: 0}}, "200|1099511627776|0"},
		{&websim.Response{Status: websim.StatusNotFound, Bytes: 256}, "404|0|0"},
	} {
		if got := digestOfResponse(tc.resp); got != tc.want {
			t.Errorf("digest of %+v = %q, want %q", tc.resp, got, tc.want)
		}
	}
}
