// Command linkmine runs the §5 case study with configurable parameters:
// the stationary baseline, the mobile wrapped Webbot, and the comparison
// the paper reports.
//
//	linkmine                       # the paper's configuration
//	linkmine -link wan10           # across a simulated WAN
//	linkmine -pages 200 -monitor   # smaller site, with rwWebbot reports
package main

import (
	"flag"
	"fmt"
	"os"

	"tax/internal/linkmine"
	"tax/internal/simnet"
	"tax/internal/websim"
)

func main() {
	pages := flag.Int("pages", 917, "pages reachable within depth 4")
	bytes := flag.Int("bytes", 3<<20, "approximate site size")
	link := flag.String("link", "lan100", "client-server link (lan100, wan10, wan2)")
	monitor := flag.Bool("monitor", false, "stack the rwWebbot monitoring wrapper")
	campus := flag.Int("campus", 0, "scan N campus web servers with one itinerant agent instead")
	flag.Parse()
	var err error
	if *campus > 0 {
		err = runCampus(*campus, *pages, *link)
	} else {
		err = run(*pages, *bytes, *link, *monitor)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkmine:", err)
		os.Exit(1)
	}
}

// runCampus drives the multi-server itinerary (§5's uit.no remark).
func runCampus(servers, pagesPerServer int, link string) error {
	var p simnet.Profile
	switch link {
	case "lan100":
		p = simnet.LAN100
	case "wan10":
		p = simnet.WAN10
	case "wan2":
		p = simnet.WAN2
	default:
		return fmt.Errorf("unknown link %q", link)
	}
	cfg := linkmine.Config{Link: p, Servers: servers, Spec: linkmine.CampusSpec(pagesPerServer)}

	ds, err := linkmine.NewDeployment(cfg)
	if err != nil {
		return err
	}
	stationary, err := ds.RunStationary()
	_ = ds.Close()
	if err != nil {
		return err
	}
	dm, err := linkmine.NewDeployment(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = dm.Close() }()
	mobile, err := dm.RunMobileMulti()
	if err != nil {
		return err
	}
	fmt.Printf("campus: %d servers x %d pages over %s\n\n", servers, pagesPerServer, link)
	fmt.Printf("%-12s %12s %12s %10s %10s\n", "mode", "elapsed", "link bytes", "pages", "dead")
	for _, r := range []*linkmine.Report{stationary, mobile} {
		fmt.Printf("%-12s %12v %12d %10d %10d\n",
			r.Mode, r.TotalElapsed.Round(1e6), r.LinkBytes, r.PagesVisited, r.InvalidTotal())
	}
	speedup := (stationary.TotalElapsed.Seconds() - mobile.TotalElapsed.Seconds()) / stationary.TotalElapsed.Seconds() * 100
	fmt.Printf("\nitinerant agent is %.1f%% faster and moves %.0fx less data\n",
		speedup, float64(stationary.LinkBytes)/float64(mobile.LinkBytes))
	return nil
}

func run(pages, bytes int, link string, monitor bool) error {
	var p simnet.Profile
	switch link {
	case "lan100":
		p = simnet.LAN100
	case "wan10":
		p = simnet.WAN10
	case "wan2":
		p = simnet.WAN2
	default:
		return fmt.Errorf("unknown link %q", link)
	}
	spec := websim.CaseStudySpec("webserv")
	spec.Pages = pages
	spec.TotalBytes = bytes
	cfg := linkmine.Config{Link: p, Spec: spec, Monitor: monitor}

	cmp, err := linkmine.Run(cfg)
	if err != nil {
		return err
	}
	s, m := cmp.Stationary, cmp.Mobile
	fmt.Printf("workload: %d pages, %d bytes over %s\n\n", s.PagesVisited, s.BytesFetched, link)
	fmt.Printf("%-12s %12s %12s %12s %8s %8s\n",
		"mode", "scan", "total", "link bytes", "dead-int", "dead-ext")
	for _, r := range []*linkmine.Report{s, m} {
		fmt.Printf("%-12s %12v %12v %12d %8d %8d\n",
			r.Mode, r.ScanElapsed.Round(1e6), r.TotalElapsed.Round(1e6),
			r.LinkBytes, len(r.InvalidInternal), len(r.InvalidExternal))
	}
	fmt.Printf("\nmobile is %.1f%% faster (paper reports 16%% on its 100 Mbit LAN)\n", cmp.SpeedupPercent())
	for _, ev := range m.MonitorEvents {
		fmt.Println("monitor:", ev)
	}
	return nil
}
