package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// gated is one end-to-end metric as BENCHMARK.json declares it: these
// five names are what later changes may claim on or be rejected by.
type gated struct {
	name   string
	unit   string
	better string
	bound  float64 // relative worsening of the median that counts as a regression
}

var endToEndMetrics = []gated{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_bytes_per_op", "B", "lower", 0.03},
}

// agreeRuns is how many runs each side of -agree gets. With three,
// setup_s — a plain wall time, the one gated figure that is not a
// quiet-slice statistic — crossed half its bound on one workload in two
// transcripts of three; medians of five hold.
const agreeRuns = 5

// runAgree is the repeatability self-check: the full set of workloads
// run as side A, then as side B, alternating, agreeRuns times a side —
// the same code on both. It prints both medians of every workload ×
// end-to-end metric with their relative difference, and fails if any
// difference exceeds half the metric's bound.
func runAgree(seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "taxperf:", err)
		return 1
	}
	// values[side][workload][metric] collects one value per run.
	var values [2]map[string]map[string][]float64
	for side := range values {
		values[side] = map[string]map[string][]float64{}
	}
	for run := 0; run < 2*agreeRuns; run++ {
		side := run % 2
		for _, w := range workloadNames {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "taxperf: -agree: %s: %v\n%s", w, err, stdout)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "taxperf: -agree: %s: %v\n", w, err)
				return 1
			}
			if values[side][w] == nil {
				values[side][w] = map[string][]float64{}
			}
			fmt.Printf("run %d side %c %-13s", run/2+1, 'A'+side, w)
			for _, g := range endToEndMetrics {
				v := res.Metrics[g.name].Value
				values[side][w][g.name] = append(values[side][w][g.name], v)
				fmt.Printf("  %s %.4f", g.name, v)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\n%-13s %-19s %16s %16s %9s %9s\n", "workload", "metric", "median A", "median B", "diff", "limit")
	failed := 0
	for _, w := range workloadNames {
		for _, g := range endToEndMetrics {
			a, b := median(values[0][w][g.name]), median(values[1][w][g.name])
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if diff > g.bound/2 {
				verdict = "  DISAGREE"
				failed++
			}
			fmt.Printf("%-13s %-19s %16.4f %16.4f %8.2f%% %8.2f%%%s\n", w, g.name, a, b, diff*100, g.bound/2*100, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("\n-agree: %d of %d workload x metric pairs differ by more than half their bound\n", failed, len(workloadNames)*len(endToEndMetrics))
		return 1
	}
	fmt.Printf("\n-agree: all %d workload x metric pairs agree within half their bound\n", len(workloadNames)*len(endToEndMetrics))
	return 0
}
