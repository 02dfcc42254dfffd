// Command deadlinks runs the paper's §5 case study end to end: a
// stationary Webbot scan of a 917-page / 3 MB web server across a
// 100 Mbit LAN versus the wrapped, mobilized Webbot (figure 5) that
// relocates to the server, scans locally, validates the rejected outward
// links in a second pass, and carries only the condensed dead-link list
// home. The monitoring wrapper's location reports are printed as they
// arrive.
//
//	go run ./examples/deadlinks
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"tax/internal/linkmine"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadlinks:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := linkmine.Config{Monitor: true}

	fmt.Println("generating the case-study site (917 pages, ~3 MB, depth <= 4) ...")
	d, err := linkmine.NewDeployment(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("site: %d pages total, %d reachable at depth <= 4, %d dead internal links, %d external links (%d dead)\n\n",
		d.Sites[0].Pages(), d.Sites[0].PagesWithinDepth(4),
		len(d.Sites[0].DeadInternalLinks()), len(d.Sites[0].ExternalLinks()),
		len(d.Sites[0].DeadExternalLinks()))

	fmt.Println("== stationary Webbot (client pulls every page across the LAN) ==")
	stationary, err := d.RunStationary()
	if err != nil {
		return err
	}
	_ = d.Close()

	fmt.Println("== mobile Webbot (rwWebbot(mwWebbot(webbot)) relocates to the server) ==")
	dm, err := linkmine.NewDeployment(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = dm.Close() }()
	mobile, err := dm.RunMobile()
	if err != nil {
		return err
	}
	for _, ev := range mobile.MonitorEvents {
		fmt.Println("  monitor:", ev)
	}

	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "metric\tstationary\tmobile")
	fmt.Fprintf(w, "pages scanned\t%d\t%d\n", stationary.PagesVisited, mobile.PagesVisited)
	fmt.Fprintf(w, "bytes scanned\t%d\t%d\n", stationary.BytesFetched, mobile.BytesFetched)
	fmt.Fprintf(w, "dead internal links\t%d\t%d\n", len(stationary.InvalidInternal), len(mobile.InvalidInternal))
	fmt.Fprintf(w, "dead external links\t%d\t%d\n", len(stationary.InvalidExternal), len(mobile.InvalidExternal))
	fmt.Fprintf(w, "bytes over the LAN\t%d\t%d\n", stationary.LinkBytes, mobile.LinkBytes)
	fmt.Fprintf(w, "scan time (simulated)\t%v\t%v\n", stationary.ScanElapsed, mobile.ScanElapsed)
	if err := w.Flush(); err != nil {
		return err
	}

	cmp := linkmine.Comparison{Stationary: stationary, Mobile: mobile}
	fmt.Printf("\nmobile Webbot is %.1f%% faster than the stationary scan (paper: 16%%)\n",
		cmp.SpeedupPercent())

	fmt.Println("\nfirst dead links found:")
	for i, l := range mobile.InvalidInternal {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(mobile.InvalidInternal)-5)
			break
		}
		fmt.Printf("  %s (linked from %s)\n", l.URL, l.Referrer)
	}
	return nil
}
