// Package bench is the experiment harness: it regenerates every
// quantitative claim of the paper's evaluation (see DESIGN.md §3 for the
// experiment index) as printable tables, shared by the repository's
// testing.B benchmarks and the cmd/taxbench tool.
//
// Adding an experiment is one Experiments entry plus its function:
// cmd/taxbench's -exp names, the files it writes, the -check gate and
// BenchmarkExperiments are all loops over that table, and
// TestExperimentsClaimEveryBaseline fails when a committed BENCH_*.json
// and the table disagree.
//
// Calibration. The simulator's cost model has four load-bearing
// constants, chosen once so that the paper's single published number —
// a 16 % local-vs-LAN advantage on the 917-page/3 MB crawl — is
// reproduced, and then left alone for every other experiment:
//
//   - simnet.LAN100: 100 Mbit/s, 150 µs latency, 150 µs per-message cost
//   - websim.DefaultServer: 700 µs per request + 200 ns per body byte
//   - webbot.ParseCostPerKB: 800 µs per KiB crawled
//   - services.CompileCost: 200 ns per source byte (figure-3 pipeline)
//
// EXPERIMENTS.md records paper-vs-measured for every row produced here.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"tax/internal/linkmine"
	"tax/internal/simnet"
	"tax/internal/vclock"
	"tax/internal/webbot"
	"tax/internal/websim"
)

// Experiment is one row of the evaluation: a name for taxbench -exp, the
// function that runs it, and the committed baseline it regenerates.
type Experiment struct {
	Name string
	// Run returns the printable table and a document. When File is set
	// the document is that baseline's JSON content and holds only exact
	// counts and virtual-clock arithmetic, so its encoding is
	// byte-identical run to run (see Check).
	Run func() (*Table, any, error)
	// File is the committed BENCH_*.json at the repository root, or "".
	File string
}

// Experiments lists every experiment in the order taxbench runs them.
var Experiments = []Experiment{
	{"e1", func() (*Table, any, error) { return E1() }, ""},
	{"e1wan", tableOnly(E1WAN), ""},
	{"stats", tableOnly(SiteStats), ""},
	{"campus", tableOnly(Campus), ""},
	{"crossover", tableOnly(Crossover), ""},
	{"f3", tableOnly(Figure3), ""},
	{"tbc", tableOnly(BriefcaseDrop), ""},
	{"tfw", tableOnly(FirewallBypass), ""},
	{"parallel", Parallel, "BENCH_parallel.json"},
	{"durability", Durability, "BENCH_durability.json"},
	{"hotpath", Hotpath, "BENCH_hotpath.json"},
	{"policy", Policy, "BENCH_policy.json"},
	{"directory", Directory, "BENCH_directory.json"},
	{"frontier", Frontier, "BENCH_frontier.json"},
	{"obsv", tableOnly(Obsv), ""},
	{"faults", tableOnly(Faults), ""},
}

// tableOnly adapts an experiment that has no document.
func tableOnly(run func() (*Table, error)) func() (*Table, any, error) {
	return func() (*Table, any, error) {
		t, err := run()
		return t, nil, err
	}
}

// Table is one experiment's printable result.
type Table struct {
	// Lead is free-form output printed above the title (the obsv
	// experiment's merged timeline).
	Lead []string
	// Title names the experiment ("E1", "F3", ...).
	Title string
	// Note is a one-line description under the title.
	Note string
	// Header labels the columns.
	Header []string
	// Rows are the data cells.
	Rows [][]string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	for _, l := range t.Lead {
		sb.WriteString(l + "\n")
	}
	sb.WriteString("== " + t.Title + " ==\n")
	if t.Note != "" {
		sb.WriteString(t.Note + "\n")
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// ms renders a duration as milliseconds, switching to microseconds for
// sub-millisecond values so figure-3 activation costs stay readable.
func ms(d time.Duration) string {
	if d < time.Millisecond {
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// E1 regenerates the §5 headline result: the 917-page / 3 MB scan,
// stationary across the LAN versus the mobile Webbot executing locally.
func E1() (*Table, *linkmine.Comparison, error) {
	cmp, err := linkmine.Run(linkmine.Config{})
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title: "E1 — §5 case study: local vs. remote Webbot scan",
		Note: fmt.Sprintf("workload: %d pages, %d bytes, depth <= 4; link: 100 Mbit LAN (paper reports local 16%% faster)",
			cmp.Stationary.PagesVisited, cmp.Stationary.BytesFetched),
		Header: []string{"mode", "scan time", "total time", "LAN bytes", "dead internal", "dead external"},
	}
	for _, r := range []*linkmine.Report{cmp.Stationary, cmp.Mobile} {
		t.Rows = append(t.Rows, []string{
			r.Mode, ms(r.ScanElapsed), ms(r.TotalElapsed),
			fmt.Sprintf("%d", r.LinkBytes),
			fmt.Sprintf("%d", len(r.InvalidInternal)),
			fmt.Sprintf("%d", len(r.InvalidExternal)),
		})
	}
	t.Rows = append(t.Rows, []string{
		"speedup", fmt.Sprintf("%.1f%%", cmp.SpeedupPercent()), "", "", "", "",
	})
	return t, cmp, nil
}

// WANCase is one cell of the E1-WAN sweep.
type WANCase struct {
	Link    simnet.Profile
	SizeMul int // multiplies the paper's 3 MB workload
}

// E1WAN regenerates §5's closing extrapolation: "if the client and
// server is separated by a wide area network and the volume of data much
// greater, it is conceivable that the mobile Webbot would be even
// faster." The sweep crosses link classes with workload sizes and
// reports where the mobile agent's win grows and where it shrinks.
func E1WAN() (*Table, error) {
	cases := []WANCase{
		{Link: simnet.LAN100, SizeMul: 1},
		{Link: simnet.LAN100, SizeMul: 4},
		{Link: simnet.WAN10, SizeMul: 1},
		{Link: simnet.WAN10, SizeMul: 4},
		{Link: simnet.WAN2, SizeMul: 1},
		{Link: simnet.WAN2, SizeMul: 4},
	}
	t := &Table{
		Title:  "E1-WAN — §5 extrapolation: link class × data volume",
		Note:   "same crawl with the client-server link degraded and the site scaled",
		Header: []string{"link", "site", "stationary", "mobile", "speedup", "LAN/WAN bytes s", "bytes m"},
	}
	for _, c := range cases {
		spec := websim.CaseStudySpec("webserv")
		spec.Pages *= c.SizeMul
		spec.TotalBytes *= c.SizeMul
		cmp, err := linkmine.Run(linkmine.Config{Link: c.Link, Spec: spec})
		if err != nil {
			return nil, fmt.Errorf("bench: e1wan %s x%d: %w", c.Link.Name, c.SizeMul, err)
		}
		t.Rows = append(t.Rows, []string{
			c.Link.Name,
			fmt.Sprintf("%dMB", 3*c.SizeMul),
			ms(cmp.Stationary.ScanElapsed),
			ms(cmp.Mobile.ScanElapsed),
			fmt.Sprintf("%.1f%%", cmp.SpeedupPercent()),
			fmt.Sprintf("%d", cmp.Stationary.LinkBytes),
			fmt.Sprintf("%d", cmp.Mobile.LinkBytes),
		})
	}
	return t, nil
}

// SiteStats regenerates the kind of report the W3C Webbot produced —
// "statistics on web pages such as link validity, age, and type of web
// pages encountered" — for the case-study crawl.
func SiteStats() (*Table, error) {
	site, err := websim.Generate(websim.CaseStudySpec("webserv"))
	if err != nil {
		return nil, err
	}
	clock := vclock.NewVirtual()
	robot := webbot.New(&websim.Client{
		Server:   websim.DefaultServer(site),
		Universe: &websim.Universe{Origin: site},
		Link:     simnet.Loopback,
		Clock:    clock,
	}, webbot.WithClock(clock), webbot.WithMaxDepth(4), webbot.WithPrefix("http://"+site.Host+"/"))
	st, err := robot.RunCtx(context.Background(), site.Root)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Webbot statistics — link validity, age and type (§5 workload)",
		Note:   fmt.Sprintf("%d pages, %d bytes, %d links checked", st.PagesVisited, st.BytesFetched, st.LinksChecked),
		Header: []string{"statistic", "value"},
	}
	types := make([]string, 0, len(st.TypeCounts))
	for ty := range st.TypeCounts {
		types = append(types, ty)
	}
	sort.Strings(types)
	for _, ty := range types {
		t.Rows = append(t.Rows, []string{"type " + ty, fmt.Sprintf("%d", st.TypeCounts[ty])})
	}
	ageLabels := []string{"age < 30 days", "age < 180 days", "age < 365 days", "age >= 365 days"}
	for i, label := range ageLabels {
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%d", st.AgeBuckets[i])})
	}
	t.Rows = append(t.Rows,
		[]string{"invalid links", fmt.Sprintf("%d", len(st.Invalid))},
		[]string{"rejected (prefix)", fmt.Sprintf("%d", len(st.RejectedByPrefix()))},
		[]string{"max depth seen", fmt.Sprintf("%d", st.MaxDepthSeen)},
	)
	return t, nil
}

// Campus regenerates the §5 remark "if we were to check all the servers
// at the university campus (the whole uit.no domain) ... Webbot needs to
// be run several times, and preferably relocated to a new host between
// each execution": an itinerant agent visiting K web servers versus the
// fixed client scanning each across the LAN.
func Campus() (*Table, error) {
	t := &Table{
		Title:  "E1-campus — §5 extension: itinerant scan of K web servers",
		Note:   "200 pages (~0.7 MB) per server on the 100 Mbit campus LAN",
		Header: []string{"servers", "stationary", "mobile", "speedup", "bytes s", "bytes m"},
	}
	for _, k := range []int{1, 2, 4, 8} {
		cfg := linkmine.Config{Servers: k, Spec: linkmine.CampusSpec(200)}
		ds, err := linkmine.NewDeployment(cfg)
		if err != nil {
			return nil, err
		}
		stationary, err := ds.RunStationary()
		closeQuietD(ds)
		if err != nil {
			return nil, err
		}
		dm, err := linkmine.NewDeployment(cfg)
		if err != nil {
			return nil, err
		}
		mobile, err := dm.RunMobileMulti()
		closeQuietD(dm)
		if err != nil {
			return nil, err
		}
		speedup := (stationary.TotalElapsed.Seconds() - mobile.TotalElapsed.Seconds()) /
			stationary.TotalElapsed.Seconds() * 100
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			ms(stationary.TotalElapsed),
			ms(mobile.TotalElapsed),
			fmt.Sprintf("%.1f%%", speedup),
			fmt.Sprintf("%d", stationary.LinkBytes),
			fmt.Sprintf("%d", mobile.LinkBytes),
		})
	}
	return t, nil
}

// Crossover finds where mobility stops paying: tiny sites on fast links,
// where migration overhead exceeds the network savings. It reports the
// site size at which the stationary robot first wins on the loopback-
// fast LAN, demonstrating that the reproduction models both sides of the
// trade-off rather than hard-coding a mobile win.
func Crossover() (*Table, error) {
	t := &Table{
		Title:  "E1-crossover — where migration stops paying",
		Note:   "shrinking sites on the 100 Mbit LAN; negative speedup = stationary wins",
		Header: []string{"pages", "bytes", "stationary", "mobile", "speedup"},
	}
	for _, pages := range []int{917, 200, 50, 12, 4} {
		spec := websim.CaseStudySpec("webserv")
		spec.Pages = pages
		spec.TotalBytes = pages * 3400
		spec.ExtraPages = 10
		cmp, err := linkmine.Run(linkmine.Config{Spec: spec})
		if err != nil {
			return nil, fmt.Errorf("bench: crossover %d: %w", pages, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pages),
			fmt.Sprintf("%d", cmp.Stationary.BytesFetched),
			ms(cmp.Stationary.ScanElapsed),
			ms(cmp.Mobile.ScanElapsed),
			fmt.Sprintf("%.1f%%", cmp.SpeedupPercent()),
		})
	}
	return t, nil
}
