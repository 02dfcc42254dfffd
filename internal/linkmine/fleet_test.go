package linkmine

import (
	"reflect"
	"testing"
	"time"

	"tax/internal/briefcase"
)

// resultBC builds a delivered briefcase in the itinerant shape:
// CRAWLS rows, condensed RESULTS rows, optional raw INVALID/REJECTED
// reports and SKIPPED stops.
func resultBC(task string, crawls []string, results []string, invalid, rejected, skipped []string) *briefcase.Briefcase {
	bc := briefcase.New()
	if task != "" {
		bc.SetString(FolderTask, task)
	}
	for _, row := range crawls {
		bc.Ensure("CRAWLS").AppendString(row)
	}
	for _, row := range results {
		bc.Ensure(briefcase.FolderResults).AppendString(row)
	}
	for _, row := range invalid {
		bc.Ensure(FolderInvalid).AppendString(row)
	}
	for _, row := range rejected {
		bc.Ensure(FolderRejected).AppendString(row)
	}
	for _, row := range skipped {
		bc.Ensure("SKIPPED").AppendString(row)
	}
	return bc
}

// TestAggregatorExactlyOnce drives the fan-in with duplicated, late,
// and out-of-order deliveries — including INVALID/REJECTED report
// folders — and checks each task aggregates exactly once with
// deterministic totals.
func TestAggregatorExactlyOnce(t *testing.T) {
	a := resultBC("task-0",
		[]string{"www1|10|34300|40|500000000"},
		[]string{"www1|http://www1/dead|http://www1/index|404|invalid"},
		nil, nil, nil)
	b := resultBC("task-1",
		[]string{"www2|20|68600|80"},
		nil,
		[]string{"http://www2/a|http://www2/index|404", "http://www2/b|http://www2/index|410"},
		[]string{"http://elsewhere/x|http://www2/index|0"},
		[]string{"tacoma://www9//vm_go"})
	c := resultBC("task-2",
		[]string{"www3|5|17150|15", "www3|1|3430|2"},
		nil, nil, nil, nil)

	want := TaskResult{
		Pages: 36, Bytes: 123480, Links: 137,
		DeadLinks: 3, Rejected: 1,
		Elapsed: 500 * time.Millisecond,
		Skipped: []string{"tacoma://www9//vm_go"},
	}

	cases := []struct {
		name  string
		feed  []*briefcase.Briefcase
		fresh int
		dups  int
	}{
		{"in-order", []*briefcase.Briefcase{a, b, c}, 3, 0},
		{"out-of-order", []*briefcase.Briefcase{c, a, b}, 3, 0},
		{"duplicates", []*briefcase.Briefcase{a, a, b, b, b, c, a}, 3, 4},
		{"late-duplicate-after-all", []*briefcase.Briefcase{a, b, c, a.Clone(), c.Clone()}, 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			agg := NewAggregator()
			fresh := 0
			for _, bc := range tc.feed {
				if _, ok := agg.Add(bc); ok {
					fresh++
				}
			}
			if fresh != tc.fresh {
				t.Errorf("fresh deliveries = %d, want %d", fresh, tc.fresh)
			}
			if agg.Duplicates() != tc.dups {
				t.Errorf("Duplicates() = %d, want %d", agg.Duplicates(), tc.dups)
			}
			got := agg.Totals()
			got.ID = ""
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Totals() = %+v, want %+v", got, want)
			}
			if n := len(agg.Tasks()); n != 3 {
				t.Errorf("Tasks() has %d entries, want 3", n)
			}
		})
	}
}

// TestAggregatorMalformed: briefcases without a TASK folder are counted
// but never aggregated.
func TestAggregatorMalformed(t *testing.T) {
	agg := NewAggregator()
	if id, ok := agg.Add(resultBC("", []string{"www1|1|100|1"}, nil, nil, nil, nil)); ok || id != "" {
		t.Errorf("Add(no TASK) = (%q, %v), want (\"\", false)", id, ok)
	}
	if agg.malformedCount() != 1 {
		t.Errorf("malformedCount() = %d, want 1", agg.malformedCount())
	}
	if tot := agg.Totals(); tot.Pages != 0 {
		t.Errorf("malformed delivery leaked into totals: %+v", tot)
	}
}

// TestAggregatorSingleServerShape: the single-server CRAWL folder and
// raw report folders (RunMobile's delivery shape) parse too.
func TestAggregatorSingleServerShape(t *testing.T) {
	bc := briefcase.New()
	bc.SetString(FolderTask, "solo")
	bc.SetString(FolderCrawl, "42|144060|99")
	bc.Ensure(FolderInvalid).AppendString("http://h/x|http://h/|404")
	agg := NewAggregator()
	if _, ok := agg.Add(bc); !ok {
		t.Fatal("single-server delivery rejected")
	}
	tot := agg.Totals()
	if tot.Pages != 42 || tot.Bytes != 144060 || tot.Links != 99 || tot.DeadLinks != 1 {
		t.Errorf("Totals() = %+v", tot)
	}
}

// TestRunFleetMatchesSequential runs the same campus twice — the
// sequential itinerant scan and an 8-worker fleet — and checks the
// fleet finds the identical aggregate page/byte/dead-link counts while
// finishing in less virtual time than one agent's serial makespan.
func TestRunFleetMatchesSequential(t *testing.T) {
	cfg := Config{Servers: 4, Spec: CampusSpec(60)}
	seq, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	seqRep, err := seq.RunMobileMulti()
	if err != nil {
		t.Fatal(err)
	}

	par, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	fleetRep, err := par.RunFleet(FleetOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}

	if fleetRep.PagesVisited != seqRep.PagesVisited {
		t.Errorf("fleet pages = %d, sequential = %d", fleetRep.PagesVisited, seqRep.PagesVisited)
	}
	if fleetRep.BytesFetched != seqRep.BytesFetched {
		t.Errorf("fleet bytes = %d, sequential = %d", fleetRep.BytesFetched, seqRep.BytesFetched)
	}
	if fleetRep.DeadLinks != seqRep.InvalidTotal() {
		t.Errorf("fleet dead links = %d, sequential = %d", fleetRep.DeadLinks, seqRep.InvalidTotal())
	}
	if len(fleetRep.Skipped) != 0 {
		t.Errorf("fleet skipped stops: %v", fleetRep.Skipped)
	}
	if fleetRep.Duplicates != 0 {
		t.Errorf("fleet duplicates: %d", fleetRep.Duplicates)
	}
	if fleetRep.Makespan <= 0 || fleetRep.Makespan >= seqRep.TotalElapsed {
		t.Errorf("fleet virtual makespan %v not under sequential %v",
			fleetRep.Makespan, seqRep.TotalElapsed)
	}
}

// TestRunFleetSerialMakespanIsSum: with one worker the fleet's virtual
// makespan is exactly the sum of per-task costs — the baseline every
// parallel speedup is measured against.
func TestRunFleetSerialMakespanIsSum(t *testing.T) {
	cfg := Config{Servers: 2, Spec: CampusSpec(40)}
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rep, err := d.RunFleet(FleetOptions{Agents: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for i, c := range rep.PerTask {
		sum += c
		if c <= 0 {
			t.Errorf("task %d reported non-positive virtual cost %v", i, c)
		}
	}
	if rep.Makespan != sum {
		t.Errorf("serial makespan %v != per-task sum %v", rep.Makespan, sum)
	}
}

// TestRunFleetMoreAgentsThanServers: round-robin assignment, with each
// server's scans queued one after another, aggregates every scan
// exactly once.
func TestRunFleetMoreAgentsThanServers(t *testing.T) {
	d, err := NewDeployment(Config{Servers: 2, Spec: CampusSpec(30)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rep, err := d.RunFleet(FleetOptions{Agents: 6, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewDeployment(Config{Servers: 2, Spec: CampusSpec(30)})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	base, err := single.RunFleet(FleetOptions{Agents: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 6 agents over 2 servers scan each site 3 times.
	if rep.PagesVisited != 3*base.PagesVisited {
		t.Errorf("pages = %d, want 3 * %d", rep.PagesVisited, base.PagesVisited)
	}
	if rep.Duplicates != 0 {
		t.Errorf("duplicates = %d", rep.Duplicates)
	}
	if len(rep.PerTask) != 6 {
		t.Errorf("PerTask has %d entries, want 6", len(rep.PerTask))
	}
}
