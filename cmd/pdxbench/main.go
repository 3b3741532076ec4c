// Command pdxbench regenerates every experiment of the reproduction:
// one experiment per theorem, lemma, example, and boundary construction
// of the peer data exchange paper, declared once in internal/paperexp
// (see DESIGN.md for the index and EXPERIMENTS.md for recorded
// outputs). Each table is followed by its claim verdict, "claim: ok" or
// "claim: FAILED: <reason>"; any failure makes the exit status 1.
//
// Usage:
//
//	pdxbench                        # run all experiments
//	pdxbench -exp EXP-T3            # run one experiment
//	pdxbench -list                  # list experiment ids
//	pdxbench -json BENCH_PR4.json   # machine-readable perf suite
//
// To profile an experiment, profile its benchmark:
// go test -run '^$' -bench 'Paper/EXP-PAR' -cpuprofile cpu.out .
//
// -json times every case of the perf registry (internal/perfsuite) and
// writes the report that scripts/bench-compare gates against the
// committed BENCH_PR<k>.json baselines; a failing case writes none.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/paperexp"
	"repro/internal/perfsuite"
)

func main() {
	os.Exit(run(os.Args[1:], paperexp.Experiments(), os.Stdout, os.Stderr))
}

// run runs the experiments of exps that args select and returns the
// exit status.
func run(args []string, exps []paperexp.Experiment, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdxbench", flag.ExitOnError)
	expID := fs.String("exp", "", "run a single experiment by id (default: all)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	jsonOut := fs.String("json", "", "run the perf suite and write machine-readable results to this file")
	fs.Parse(args) //nolint:errcheck // ExitOnError exits on a parse error

	if *jsonOut != "" {
		if err := writeJSONReport(*jsonOut); err != nil {
			fmt.Fprintf(stderr, "pdxbench: -json: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonOut)
		return 0
	}
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	ran, status := 0, 0
	for _, e := range exps {
		if *expID != "" && e.ID != *expID {
			continue
		}
		ran++
		fmt.Fprintf(stdout, "== %s — %s ==\n", e.ID, e.Title)
		tab, err := e.Run()
		if err == nil {
			err = tab.Write(stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "pdxbench: %s: %v\n", e.ID, err)
			status = 1
			continue
		}
		verdict := "ok"
		if err := e.Claim(tab); err != nil {
			verdict, status = "FAILED: "+err.Error(), 1
		}
		fmt.Fprintf(stdout, "claim: %s\n\n", verdict)
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "pdxbench: unknown experiment %q (use -list)\n", *expID)
		return 2
	}
	return status
}

// writeJSONReport runs the perf registry and writes its report to path.
func writeJSONReport(path string) error {
	rep, err := perfsuite.RunAll()
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
