// Benchmarks regenerating the paper's evaluation — one sub-benchmark per
// row of bench.Experiments (the DESIGN.md experiment index). Deterministic
// simulated results (elapsed virtual time) are attached as custom
// metrics; the Go benchmark time measures the harness itself.
//
//	go test -bench=. -benchmem
package tax_test

import (
	"testing"

	"tax/internal/bench"
	"tax/internal/linkmine"
)

// BenchmarkExperiments runs every experiment of the evaluation table.
// E1, the §5 headline (917-page / 3 MB scan, stationary across the
// 100 Mbit LAN vs. the mobile Webbot), reports sim-s-stationary,
// sim-s-mobile and speedup-pct (paper: 16%).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for b.Loop() {
				_, doc, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if cmp, ok := doc.(*linkmine.Comparison); ok {
					b.ReportMetric(cmp.Stationary.ScanElapsed.Seconds(), "sim-s-stationary")
					b.ReportMetric(cmp.Mobile.ScanElapsed.Seconds(), "sim-s-mobile")
					b.ReportMetric(cmp.SpeedupPercent(), "speedup-pct")
				}
			}
		})
	}
}
