// Command taxbench regenerates the paper's evaluation tables. It is a
// loop over bench.Experiments: each experiment prints its table and, when
// it has one, rewrites its committed BENCH_*.json baseline in the working
// directory. DESIGN.md indexes the experiments and EXPERIMENTS.md records
// their results.
//
//	taxbench            # run every experiment
//	taxbench -exp e1    # one experiment
//	taxbench -check     # regression gate, wired into CI by `make bench-check`
//
// -check re-runs the experiments that have a baseline and compares each
// fresh document with the committed file byte for byte. Any drift prints
// the differing lines and exits non-zero; after an intentional change,
// regenerate the baselines with `make bench` and commit them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tax/internal/bench"
)

func main() {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	choices := strings.Join(names, ", ") + ", all"
	exp := flag.String("exp", "all", "experiment to run ("+choices+")")
	check := flag.Bool("check", false, "regression gate: compare fresh results with the committed BENCH_*.json baselines byte for byte instead of rewriting them; non-zero exit on drift")
	flag.Parse()
	if err := run(*exp, *check, choices); err != nil {
		fmt.Fprintln(os.Stderr, "taxbench:", err)
		os.Exit(1)
	}
}

func run(exp string, check bool, choices string) error {
	known, drifted := false, 0
	for _, e := range bench.Experiments {
		if exp != "all" && exp != e.Name {
			continue
		}
		known = true
		if check && e.File == "" {
			continue
		}
		t, doc, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if check {
			diffs, err := bench.Check(e.File, doc)
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			if len(diffs) == 0 {
				fmt.Printf("taxbench: %-22s ok\n", e.File)
				continue
			}
			drifted++
			fmt.Printf("taxbench: %-22s DRIFTED (%d lines)\n", e.File, len(diffs))
			for _, d := range diffs {
				fmt.Println("    " + d)
			}
			continue
		}
		fmt.Println(t.Format())
		if e.File != "" {
			data, err := bench.Encode(doc)
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			if err := os.WriteFile(e.File, data, 0o644); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintln(os.Stderr, "taxbench: wrote", e.File)
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (have %s)", exp, choices)
	}
	if drifted > 0 {
		return fmt.Errorf("%d benchmark baselines drifted", drifted)
	}
	return nil
}
