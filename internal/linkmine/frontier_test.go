package linkmine

import "testing"

// checkFleet fails t unless a clean fleet crawl fetched every URL
// exactly once and its aggregate Stats equal the serial robot's.
func checkFleet(t *testing.T, rep *FrontierFleetReport) {
	t.Helper()
	switch {
	case len(rep.WorkerErrors) > 0:
		t.Fatalf("worker errors: %v", rep.WorkerErrors)
	case len(rep.DoubleFetched) > 0:
		t.Fatalf("%d URLs fetched twice: %v", len(rep.DoubleFetched), rep.DoubleFetched)
	case rep.TotalFetches != rep.Records:
		t.Fatalf("fetches %d != completed records %d", rep.TotalFetches, rep.Records)
	case rep.Counts.Pending != 0 || rep.Counts.Claimed != 0:
		t.Fatalf("frontier not drained: %+v", rep.Counts)
	case !rep.Identical:
		t.Fatalf("aggregate Stats differ from the serial robot's:\n fleet  %+v\n serial %+v", rep.Aggregate, rep.Serial)
	}
}

// TestFleetDepth4 is one eight-agent crawl at the default depth of 4,
// where admission cuts the site. A link enqueued at a claim's stale
// depth used to lose its subtree here about once in five thousand
// crawls; `make frontier-sweep` runs this test two thousand times.
func TestFleetDepth4(t *testing.T) {
	rep, err := RunFrontierFleet(FrontierFleetConfig{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkFleet(t, rep)
}

// TestFleetOneRoundTripPerURL pins the fleet's RPCs: a clean crawl of
// the whole site (1,136 URLs at depth 8) costs one round trip per URL,
// plus each agent's first claim and one spare, plus the coordinator's
// add, records and counts.
func TestFleetOneRoundTripPerURL(t *testing.T) {
	rep, err := RunFrontierFleet(FrontierFleetConfig{Agents: 8, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkFleet(t, rep)
	if rep.Records != 1136 {
		t.Fatalf("crawl completed %d URLs, want the site's 1136", rep.Records)
	}
	if limit := int64(rep.Records + 2*rep.Agents + 3); rep.RPCs > limit {
		t.Fatalf("crawl took %d RPCs, want at most %d", rep.RPCs, limit)
	}
}
