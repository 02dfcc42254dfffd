package bench

import (
	"fmt"
	"reflect"
	"time"

	"tax/internal/linkmine"
	"tax/internal/simnet"
	"tax/internal/vclock"
	"tax/internal/webbot"
	"tax/internal/websim"
)

// ParallelResult is one worker-count point of the fleet sweep, in
// machine-readable form for BENCH_parallel.json.
type ParallelResult struct {
	// Workers is the fleet pool width at this point.
	Workers int `json:"workers"`
	// Agents is the number of single-server itineraries launched.
	Agents int `json:"agents"`
	// MakespanMs is the fleet's virtual completion time (see
	// linkmine.FleetReport.Makespan) — the speedup metric.
	MakespanMs float64 `json:"virtual_makespan_ms"`
	// ScansPerVirtualSec is fleet throughput: agents per virtual
	// makespan second.
	ScansPerVirtualSec float64 `json:"scans_per_virtual_sec"`
	// Speedup is this point's throughput relative to the 1-worker run.
	Speedup float64 `json:"speedup_vs_serial"`
	// Pages, DeadLinks are the aggregate scan results — identical at
	// every worker count, or the run is not deterministic.
	Pages     int `json:"pages"`
	DeadLinks int `json:"dead_links"`
	// Duplicates is how many duplicate deliveries the collector saw.
	Duplicates int `json:"duplicates"`
}

// Parallel sweeps fleet worker counts over an 8-server campus and
// verifies the two acceptance properties of the parallel layer: fleet
// throughput in virtual time scales with workers (serial launches sum,
// parallel launches overlap), and the aggregate scan results do not
// depend on the worker count. It also replays the single-robot check —
// a K=8 parallel crawl of the paper's 917-page site returns Stats
// byte-identical to the serial crawl — and reports it as a row. Wall
// time is printed only: on a single-core host it cannot show parallel
// speedup, and it would make the document differ run to run.
func Parallel() (*Table, any, error) {
	const agents = 8
	servers := make([]string, agents)
	for i := range servers {
		servers[i] = fmt.Sprintf("www%d", i+1)
	}
	cfg := linkmine.MultiConfig{Servers: servers, PagesPerServer: 120}

	t := &Table{
		Title:  "E3-parallel — fleet execution: N concurrent mwWebbot itineraries",
		Note:   "virtual-time makespan; wall clock cannot speed up on one core",
		Header: []string{"workers", "makespan", "scans/vsec", "speedup", "pages", "dead", "wall"},
	}
	var results []ParallelResult
	var serialThroughput float64
	for _, w := range []int{1, 2, 4, 8} {
		d, err := linkmine.NewMultiDeployment(cfg)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		rep, err := d.RunFleet(linkmine.FleetOptions{Agents: agents, Workers: w})
		wall := time.Since(start)
		closeQuietM(d)
		if err != nil {
			return nil, nil, err
		}
		r := ParallelResult{
			Workers:    w,
			Agents:     rep.Agents,
			MakespanMs: float64(rep.Makespan.Microseconds()) / 1000,
			Pages:      rep.PagesVisited,
			DeadLinks:  rep.DeadLinks,
			Duplicates: rep.Duplicates,
		}
		if rep.Makespan > 0 {
			r.ScansPerVirtualSec = float64(rep.Agents) / rep.Makespan.Seconds()
		}
		if w == 1 {
			serialThroughput = r.ScansPerVirtualSec
		}
		if serialThroughput > 0 {
			r.Speedup = r.ScansPerVirtualSec / serialThroughput
		}
		results = append(results, r)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			ms(rep.Makespan),
			fmt.Sprintf("%.2f", r.ScansPerVirtualSec),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", rep.PagesVisited),
			fmt.Sprintf("%d", rep.DeadLinks),
			ms(wall),
		})
	}

	identical, err := parallelCrawlIdentical()
	if err != nil {
		return nil, nil, err
	}
	t.Rows = append(t.Rows, []string{
		"K=8 crawl ≡ serial", fmt.Sprintf("%v", identical), "", "", "", "", "",
	})
	return t, struct {
		StatsIdentical bool             `json:"parallel_crawl_stats_identical"`
		Results        []ParallelResult `json:"results"`
	}{identical, results}, nil
}

// parallelCrawlIdentical crawls the paper's 917-page case-study site
// serially and with 8 prefetch workers and compares the full Stats.
func parallelCrawlIdentical() (bool, error) {
	run := func(workers int) (*webbot.Stats, error) {
		site, err := websim.Generate(websim.CaseStudySpec("webserv"))
		if err != nil {
			return nil, err
		}
		clock := vclock.NewVirtual()
		r := &webbot.Robot{
			Fetcher: &websim.Client{
				Server:   websim.DefaultServer(site),
				Universe: &websim.Universe{Origin: site},
				Link:     simnet.Loopback,
				Clock:    clock,
			},
			Clock:   clock,
			Workers: workers,
			Constraints: webbot.Constraints{
				MaxDepth: 4,
				Prefix:   "http://webserv/",
			},
		}
		return r.Run(site.Root)
	}
	serial, err := run(0)
	if err != nil {
		return false, err
	}
	parallel, err := run(8)
	if err != nil {
		return false, err
	}
	return reflect.DeepEqual(serial, parallel), nil
}
