// Command webbot runs the stationary robot standalone against a
// generated synthetic site — the paper's W3C Webbot shape, rebuilt as a
// staged crawler: a prioritized URL frontier feeding K fetcher workers
// under depth, prefix, politeness and robots.txt constraints, with
// statistics and logs of invalid and rejected links.
//
//	webbot                        # the paper's 917-page workload
//	webbot -pages 200 -depth 3    # a smaller crawl
//	webbot -link wan10            # crawl it across a simulated WAN
//	webbot -workers 8             # 8 concurrent fetchers, same Stats
//	webbot -robots -politeness 2ms
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"tax/internal/simnet"
	"tax/internal/vclock"
	"tax/internal/webbot"
	"tax/internal/websim"
)

func main() {
	pages := flag.Int("pages", 917, "pages reachable within the depth limit")
	bytes := flag.Int("bytes", 3<<20, "approximate total site size")
	depth := flag.Int("depth", 4, "search tree depth limit")
	seed := flag.Int64("seed", 1999, "site generation seed")
	link := flag.String("link", "loopback", "link between robot and server (loopback, lan100, wan10, wan2)")
	workers := flag.Int("workers", 1, "concurrent fetcher workers (Stats are worker-count independent)")
	robots := flag.Bool("robots", false, "fetch and honor the site's robots.txt")
	politeness := flag.Duration("politeness", 0, "minimum per-site delay between fetches (virtual time)")
	verbose := flag.Bool("v", false, "print every invalid link")
	flag.Parse()
	if err := run(*pages, *bytes, *depth, *seed, *link, *workers, *robots, *politeness, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "webbot:", err)
		os.Exit(1)
	}
}

func profile(name string) (simnet.Profile, error) {
	switch name {
	case "loopback":
		return simnet.Loopback, nil
	case "lan100":
		return simnet.LAN100, nil
	case "wan10":
		return simnet.WAN10, nil
	case "wan2":
		return simnet.WAN2, nil
	default:
		return simnet.Profile{}, fmt.Errorf("unknown link %q", name)
	}
}

func run(pages, bytes, depth int, seed int64, link string, workers int, robots bool, politeness time.Duration, verbose bool) error {
	p, err := profile(link)
	if err != nil {
		return err
	}
	spec := websim.CaseStudySpec("webserv")
	spec.Pages = pages
	spec.TotalBytes = bytes
	spec.Seed = seed
	site, err := websim.Generate(spec)
	if err != nil {
		return err
	}
	fmt.Printf("site: %d pages (%d within depth %d), root %s\n",
		site.Pages(), site.PagesWithinDepth(depth), depth, site.Root)

	clock := vclock.NewVirtual()
	opts := []webbot.Option{
		webbot.WithClock(clock),
		webbot.WithMaxDepth(depth),
		webbot.WithPrefix("http://webserv/"),
		webbot.WithWorkers(workers),
		webbot.WithPoliteness(politeness),
	}
	if robots {
		opts = append(opts, webbot.WithRobotsPolicy(webbot.RobotsHonor))
	}
	robot := webbot.New(&websim.Client{
		Server:   websim.DefaultServer(site),
		Universe: &websim.Universe{Origin: site},
		Link:     p,
		Clock:    clock,
	}, opts...)
	st, err := robot.RunCtx(context.Background(), site.Root)
	if err != nil {
		return err
	}
	fmt.Printf("crawl over %s (%d workers): %d pages, %d bytes, %d links checked, max depth %d\n",
		link, workers, st.PagesVisited, st.BytesFetched, st.LinksChecked, st.MaxDepthSeen)
	fmt.Printf("simulated time: %v\n", st.Elapsed)
	fmt.Printf("invalid links: %d; rejected: %d (%d distinct outward)\n",
		len(st.Invalid), len(st.Rejected), len(st.RejectedByPrefix()))
	if robots {
		var pruned int
		for _, r := range st.Rejected {
			if r.Reason == string(webbot.ReasonRobots) {
				pruned++
			}
		}
		fmt.Printf("robots.txt: %d links excluded\n", pruned)
	}
	if verbose {
		for _, l := range st.Invalid {
			fmt.Printf("  %d %s  <- %s\n", l.Status, l.URL, l.Referrer)
		}
	}
	return nil
}
