package bench

import (
	"fmt"
	"time"

	"tax/internal/chaostest"
)

// Obsv runs the observability demo (EXPERIMENTS E6): a rear-guarded 3-hop
// itinerary under seeded message faults with a mid-itinerary crash and
// restart, tower enabled. It returns a summary table led by the rendered
// merged timeline — the same lines `taxctl explain` serves, byte-identical
// across reruns with the same seed.
func Obsv() (*Table, error) {
	res, err := chaostest.Run(chaostest.Scenario{
		Seed:           42,
		Drop:           0.1,
		Delay:          0.2,
		CrashOnArrival: "h2",
		RestartDelay:   50 * time.Millisecond,
		HopDeadline:    400 * time.Millisecond,
		Observability:  true,
	})
	if err != nil {
		return nil, err
	}
	outcome := "completed"
	if !res.Completed() {
		outcome = res.Err.Error()
	}
	t := &Table{
		Lead:   append(res.Timeline, ""),
		Title:  "OBSV",
		Note:   "guarded 3-hop tour, drop=0.10 delay=0.20, h2 crashes on arrival and restarts after 50ms (seed 42)",
		Header: []string{"outcome", "recoveries", "effects", "timeline rows"},
	}
	t.Rows = append(t.Rows, []string{
		outcome,
		fmt.Sprintf("%d", res.Recoveries),
		fmt.Sprintf("%d/%d", len(res.Effects), len(chaostest.Stops)),
		fmt.Sprintf("%d", len(res.Timeline)-1),
	})
	return t, nil
}
