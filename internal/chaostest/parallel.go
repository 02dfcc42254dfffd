package chaostest

import (
	"sync"

	"tax/internal/core"
	"tax/internal/rearguard"
)

// FolderAgent tags each concurrent tour's briefcase with its agent id,
// so one shared program can key its idempotent visit effects per agent.
// A lone tour carries none.
const FolderAgent = "AGENT"

// RunParallel executes one scenario with n ≥ 1 concurrent guarded tours on
// a single deployment: every agent walks the same 3-hop itinerary under
// the same fault plan, each with its own rear guard and checkpoint
// path. It returns one Result per agent (FaultLog unset: the shared
// plan's log interleaves all tours, so per-run log determinism is a
// serial-harness property — see Run). RunParallel(sc, 1) is Run's tour
// without Run's settle, fault log and timeline.
//
// The per-agent contract is unchanged: each tour either completes with
// exactly-once effects on every non-skipped stop or ends in a typed
// failure. This is the fleet-level statement of the §4 recovery
// argument — recovery state is per agent (its own snapshot, its own
// guard), so tours cannot corrupt each other no matter how their
// messages interleave on the shared network.
func RunParallel(sc Scenario, n int) ([]Result, error) {
	w, err := newWorld(sc, n, "ag_fs", core.NodeOptions{})
	if err != nil {
		return nil, err
	}
	defer w.s.Close()
	guards := make([]*rearguard.Guard, n)
	for i := range guards {
		if guards[i], err = w.guard(i); err != nil {
			return nil, err
		}
		defer guards[i].Close()
	}

	// Launch every tour, then wait for each terminal outcome.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, g := range guards {
		if _, err := g.Launch(w.briefcase(i)); err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = g.Wait(w.sc.WaitTimeout)
		}()
	}
	wg.Wait()

	results := make([]Result, n)
	for i, g := range guards {
		results[i] = w.result(i, g, errs[i])
	}
	return results, nil
}
