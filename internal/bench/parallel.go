package bench

import (
	"fmt"

	"tax/internal/frontier"
	"tax/internal/linkmine"
)

// ParallelResult is one worker-count point of the fleet sweep, in
// machine-readable form for BENCH_parallel.json.
type ParallelResult struct {
	// Workers is the pool width the fleet's scans are scheduled onto.
	Workers int `json:"workers"`
	// Agents is the number of single-server itineraries launched.
	Agents int `json:"agents"`
	// MakespanMs is the fleet's virtual completion time at this width
	// (see linkmine.FleetReport.PerTask) — the speedup metric.
	MakespanMs float64 `json:"virtual_makespan_ms"`
	// ScansPerVirtualSec is fleet throughput: agents per virtual
	// makespan second.
	ScansPerVirtualSec float64 `json:"scans_per_virtual_sec"`
	// Speedup is this point's throughput relative to the 1-worker point.
	Speedup float64 `json:"speedup_vs_serial"`
	// Pages, DeadLinks are the fleet's aggregate scan results; the
	// pool width does not change what the scans find.
	Pages     int `json:"pages"`
	DeadLinks int `json:"dead_links"`
	// Duplicates is how many duplicate deliveries the collector saw.
	Duplicates int `json:"duplicates"`
}

// Parallel runs a fleet over an 8-server campus once and schedules its
// per-scan virtual costs onto pools of 1, 2, 4 and 8 workers: fleet
// throughput in virtual time scales with workers (serial launches sum,
// parallel launches overlap). (That a K=8 crawl of the paper's 917-page
// site returns Stats identical to the serial crawl is webbot's
// TestParallelCrawlIdenticalToSerial.) Wall time is not reported: on a
// single-core host it cannot show parallel speedup.
func Parallel() (*Table, any, error) {
	const agents = 8
	d, err := linkmine.NewDeployment(linkmine.Config{Servers: agents, Spec: linkmine.CampusSpec(120)})
	if err != nil {
		return nil, nil, err
	}
	rep, err := d.RunFleet(linkmine.FleetOptions{Agents: agents})
	closeQuietD(d)
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "E3-parallel — fleet execution: N concurrent mwWebbot itineraries",
		Note:   "virtual-time makespan of one fleet's scans scheduled onto N workers",
		Header: []string{"workers", "makespan", "scans/vsec", "speedup", "pages", "dead"},
	}
	var results []ParallelResult
	var serialThroughput float64
	for _, w := range []int{1, 2, 4, 8} {
		makespan := frontier.Schedule(rep.PerTask, nil, w, 0)
		r := ParallelResult{
			Workers:    w,
			Agents:     rep.Agents,
			MakespanMs: float64(makespan.Microseconds()) / 1000,
			Pages:      rep.PagesVisited,
			DeadLinks:  rep.DeadLinks,
			Duplicates: rep.Duplicates,
		}
		if makespan > 0 {
			r.ScansPerVirtualSec = float64(rep.Agents) / makespan.Seconds()
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
			ms(makespan),
			fmt.Sprintf("%.2f", r.ScansPerVirtualSec),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", rep.PagesVisited),
			fmt.Sprintf("%d", rep.DeadLinks),
		})
	}
	return t, struct {
		Results []ParallelResult `json:"results"`
	}{results}, nil
}
