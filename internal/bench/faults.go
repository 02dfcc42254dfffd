package bench

import (
	"fmt"
	"time"

	"tax/internal/chaostest"
)

// Faults sweeps message-drop probability against the rear-guarded 3-hop
// chaos itinerary: completion rate, recovery count and mean run time per
// drop rate. The §4 claim in numbers: checkpoint + rear-guard holds the
// completion rate up as the network degrades. Mean run time is the
// wall-clock time of a completed run — the end-to-end recovery latency
// signal: runs needing the rear-guard pay at least one hop deadline.
func Faults() (*Table, error) {
	const seedsPerPoint = 10
	t := &Table{
		Title:  "FAULTS",
		Note:   "rear-guarded 3-hop itinerary under injected message loss (dup=drop/3, delay jitter=drop)",
		Header: []string{"drop", "runs", "completed", "rate", "recoveries", "mean run ms"},
	}
	for _, drop := range []float64{0, 0.1, 0.2, 0.3} {
		var completed, recoveries int
		var totalMs, meanMs float64
		for seed := 0; seed < seedsPerPoint; seed++ {
			start := time.Now()
			res, err := chaostest.Run(chaostest.Scenario{
				Seed:        int64(1000*drop) + int64(seed),
				Drop:        drop,
				Duplicate:   drop / 3,
				Delay:       drop,
				WaitTimeout: 15 * time.Second,
			})
			if err != nil {
				return nil, err
			}
			recoveries += res.Recoveries
			if res.Completed() {
				completed++
				totalMs += float64(time.Since(start).Microseconds()) / 1000
			}
		}
		if completed > 0 {
			meanMs = totalMs / float64(completed)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", drop),
			fmt.Sprintf("%d", seedsPerPoint),
			fmt.Sprintf("%d", completed),
			fmt.Sprintf("%.0f%%", 100*float64(completed)/float64(seedsPerPoint)),
			fmt.Sprintf("%d", recoveries),
			fmt.Sprintf("%.1f", meanMs),
		})
	}
	return t, nil
}
