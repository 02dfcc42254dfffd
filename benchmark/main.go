// Command benchmark is the repo's wall-clock benchmark: five named
// workloads driven through the public functions of the TAX
// reproduction, five gated end-to-end metrics per workload, and — in a
// separate traced pass — a per-layer ladder. See README.md in this
// directory for the harness rules and why each exists.
//
//	bash benchmark/run.sh                          # all five workloads
//	bash benchmark/run.sh -workload msg_rpc_tcp    # one
//	bash benchmark/run.sh -workload agent_tour -trace 1
//	bash benchmark/run.sh -agree                   # repeatability self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// workloadNames are the fixed workload names, in the order run.sh and
// -agree run them.
var workloadNames = []string{"msg_rpc_tcp", "relay_stream", "agent_tour", "e1_scan", "fleet_crawl"}

func newWorkload(name string) workload {
	switch name {
	case "msg_rpc_tcp":
		return &msgRPC{}
	case "relay_stream":
		return &relayStream{}
	case "agent_tour":
		return &agentTour{}
	case "e1_scan":
		return &e1Scan{}
	case "fleet_crawl":
		return &fleetCrawl{}
	}
	return nil
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: msg_rpc_tcp, relay_stream, agent_tour, e1_scan or fleet_crawl")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced pass and layer timings, printing the per-layer metrics instead of the end-to-end ones")
	jsonOut := flag.String("json", "", "also write the result to this file")
	agree := flag.Bool("agree", false, "run the full set twice, alternating, and compare the medians against half of each bound")
	flag.Parse()

	if os.Getenv(envUnpinnedChild) != "" {
		os.Exit(unpinnedChild())
	}
	pinned := pinSelf(pinOps{
		get: getAffinity,
		set: setAffinity,
		exec: func(env []string) error {
			self, err := os.Executable()
			if err != nil {
				return err
			}
			return syscall.Exec(self, os.Args, env)
		},
	}, os.Environ(), os.Stderr)
	// Rule 1: one P, the default collector pacing and no memory limit,
	// whatever the caller's environment says.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	if *agree {
		os.Exit(runAgree(*seed, *seconds))
	}
	if newWorkload(*name) == nil {
		fmt.Fprintf(os.Stderr, "taxperf: -workload must be one of %v\n", workloadNames)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "taxperf: -seconds must be at least 1")
		os.Exit(2)
	}
	var res *result
	var err error
	if *trace != 0 {
		res, err = runTraced(*name, *seed, pinned)
	} else {
		res, err = runEndToEnd(*name, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "taxperf: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "taxperf: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "taxperf: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEndToEnd is the untraced pass: set up setupRepeats times, measure
// once, check, and print the five gated metrics.
func runEndToEnd(name string, seed int64, d time.Duration) (*result, error) {
	var w workload
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		w = newWorkload(name)
		took, err := bootAndWarm(w, seed, nil)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took)
	}
	defer w.close()
	m, err := measure(w, forDuration(d), nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: m.rec.attempted, Failed: m.rec.failed, Metrics: endToEnd(m, setups)}
	fmt.Printf("workload %s seed %d: %d slices of %d ops in %.2fs\n", name, seed, len(m.sliceRates), w.sliceOps(), m.elapsed.Seconds())
	fmt.Printf("  set-ups, s:")
	for _, d := range setups {
		fmt.Printf(" %.4f", d.Seconds())
	}
	fmt.Println()
	fmt.Printf("  slice rates, 1/s: %.1f\n", m.sliceRates)
	fmt.Printf("  slice median latencies, us: %.1f\n", m.sliceP50s())
	fmt.Printf("  ops_attempted %d  ops_failed %d  latency_samples %d\n", m.rec.attempted, m.rec.failed, len(m.rec.lat))
	printMetrics(res.Metrics)
	if m.rec.failed > 0 {
		res.Correct = false
		fmt.Printf("  FAILED ops: first error: %v\n", m.rec.firstErr)
	}
	if err := w.check(); err != nil {
		res.Correct = false
		fmt.Printf("  FAILED whole-run check: %v\n", err)
	}
	return res, nil
}

func printMetrics(ms metrics) {
	for _, n := range ms.names() {
		fmt.Printf("  %-34s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
