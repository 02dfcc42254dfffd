package chaostest

import (
	"testing"
	"time"
)

// TestFrontierChaosFleetClean: 8 agents over a clean network drain the
// shared frontier; the aggregate Stats must be byte-identical to the
// serial robot's, with every URL fetched exactly once.
func TestFrontierChaosFleetClean(t *testing.T) {
	rep, err := RunFrontier(FrontierScenario{Agents: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.PagesVisited != 917 {
		t.Errorf("aggregate pages = %d, want 917", rep.Aggregate.PagesVisited)
	}
	if rep.Records != rep.TotalFetches {
		t.Errorf("records %d != fetches %d", rep.Records, rep.TotalFetches)
	}
}

// TestFrontierChaosHostCrash: the frontier host crashes mid-crawl and
// restarts; remote workers keep their claims, retry through the outage,
// and the drained crawl still matches the serial baseline exactly —
// zero URLs fetched twice, zero lost.
func TestFrontierChaosHostCrash(t *testing.T) {
	rep, err := RunFrontier(FrontierScenario{
		Agents: 8,
		// Mid-crawl: a full run commits ~1,890 appends on the frontier
		// host, one frontier and one dedup-journal transaction a URL.
		CrashAppend:  700,
		RestartDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Crashed {
		t.Fatal("crash never fired")
	}
}

// TestFrontierChaosFaultsAndCrash is the acceptance scenario: a seeded
// fault plan (drops, duplicates, delays) plus a mid-crawl frontier-host
// crash. The transport is at-least-once, the frontier's transactions
// make the crawl exactly-once anyway.
func TestFrontierChaosFaultsAndCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is slow under -short")
	}
	rep, err := RunFrontier(FrontierScenario{
		Agents:       8,
		Seed:         42,
		Drop:         0.02,
		Duplicate:    0.02,
		Delay:        0.05,
		CrashAppend:  500,
		RestartDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Crashed {
		t.Fatal("crash never fired")
	}
	if rep.Aggregate.PagesVisited != 917 {
		t.Errorf("aggregate pages = %d, want 917", rep.Aggregate.PagesVisited)
	}
}
