// Command taxbench regenerates the paper's evaluation tables. It is a
// loop over bench.Experiments: each experiment prints its table and, when
// it has one, rewrites its committed BENCH_*.json baseline in the working
// directory. DESIGN.md indexes the experiments and EXPERIMENTS.md records
// their results.
//
//	taxbench            # run every experiment
//	taxbench -exp e1    # one experiment
//
// On an unchanged tree the rewritten baselines are byte-identical, and
// `go test ./internal/bench` (TestBaselines) fails on any drift; after an
// intentional change, regenerate them here (`make bench`) and commit them.
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
	flag.Parse()
	if err := run(*exp, choices); err != nil {
		fmt.Fprintln(os.Stderr, "taxbench:", err)
		os.Exit(1)
	}
}

func run(exp, choices string) error {
	known := false
	for _, e := range bench.Experiments {
		if exp != "all" && exp != e.Name {
			continue
		}
		known = true
		t, doc, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
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
	return nil
}
