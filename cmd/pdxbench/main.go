// Command pdxbench regenerates every experiment of the reproduction:
// one experiment per theorem, lemma, example, and boundary construction
// of the peer data exchange paper (see DESIGN.md for the index and
// EXPERIMENTS.md for recorded outputs).
//
// Usage:
//
//	pdxbench                        # run all experiments
//	pdxbench -exp EXP-T3            # run one experiment
//	pdxbench -experiment EXP-T3     # same, long spelling
//	pdxbench -list                  # list experiment ids
//	pdxbench -exp EXP-PAR -cpuprofile cpu.out -memprofile mem.out
//	pdxbench -json BENCH_PR4.json   # machine-readable perf suite
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
	"runtime"
	"runtime/pprof"

	"repro/internal/perfsuite"
)

type experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

func main() {
	os.Exit(run())
}

// run carries the whole program so profile-flushing defers execute on
// every exit path (os.Exit in main would skip them).
func run() int {
	expID := flag.String("exp", "", "run a single experiment by id (default: all)")
	expLong := flag.String("experiment", "", "alias for -exp")
	list := flag.Bool("list", false, "list experiment ids and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	jsonOut := flag.String("json", "", "run the perf suite and write machine-readable results to this file")
	flag.Parse()
	if *expID == "" {
		*expID = *expLong
	}

	if *jsonOut != "" {
		if err := writeJSONReport(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "pdxbench: -json: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonOut)
		return 0
	}

	exps := allExperiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdxbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pdxbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pdxbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize a settled heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pdxbench: -memprofile: %v\n", err)
			}
		}()
	}

	ran := 0
	for _, e := range exps {
		if *expID != "" && e.ID != *expID {
			continue
		}
		ran++
		fmt.Printf("== %s — %s ==\n", e.ID, e.Title)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pdxbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Println()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "pdxbench: unknown experiment %q (use -list)\n", *expID)
		return 2
	}
	return 0
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
