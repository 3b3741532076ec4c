// Command bench-compare gates perf regressions in CI: it diffs a fresh
// `pdxbench -json` run against a committed baseline (BENCH_PR<k>.json)
// and fails when any benchmark present in both runs got more than
// -threshold slower in ns/op. Names only in one run are reported but
// never gate, so adding or retiring benchmarks doesn't break the gate.
// Both files use the perfsuite Report format; a record whose ns/op is
// not positive is malformed input (exit 2), as a failed run leaves it.
//
// Without -baseline the highest-numbered BENCH_PR<k>.json in the
// repository root is used, so landing a fresh baseline automatically
// retargets the gate — no CI edit per PR.
//
// Usage:
//
//	go run ./scripts -current /tmp/bench.json
//	go run ./scripts -baseline BENCH_PR7.json -current /tmp/bench.json -threshold 0.40
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/perfsuite"
)

// baselinePattern matches committed baseline file names, capturing the
// PR number.
var baselinePattern = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

// latestBaseline picks the name with the highest BENCH_PR<k>.json
// number from a directory listing (numerically, so PR10 beats PR9).
// Non-matching names are ignored; ok is false when nothing matches.
func latestBaseline(names []string) (best string, ok bool) {
	bestK := -1
	for _, n := range names {
		m := baselinePattern.FindStringSubmatch(filepath.Base(n))
		if m == nil {
			continue
		}
		k, err := strconv.Atoi(m[1])
		if err != nil || k <= bestK {
			continue
		}
		best, bestK = n, k
	}
	return best, bestK >= 0
}

// findBaseline scans dir for the latest committed baseline.
func findBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	name, ok := latestBaseline(names)
	if !ok {
		return "", fmt.Errorf("no BENCH_PR<k>.json baseline in %s", dir)
	}
	return filepath.Join(dir, name), nil
}

// load reads a report. A record without a positive ns/op is malformed:
// it is what a failed run would leave, and it would read as a speedup.
func load(path string) (*perfsuite.Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep perfsuite.Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	for _, r := range rep.Benchmarks {
		if r.NsPerOp <= 0 {
			return nil, fmt.Errorf("%s: %s: ns_per_op %d, want > 0", path, r.Name, r.NsPerOp)
		}
	}
	return &rep, nil
}

func byName(rep *perfsuite.Report) map[string]perfsuite.Record {
	m := make(map[string]perfsuite.Record, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		m[r.Name] = r
	}
	return m
}

func main() {
	baseline := flag.String("baseline", "", "committed baseline JSON (empty = highest-numbered BENCH_PR<k>.json in -baseline-dir)")
	baselineDir := flag.String("baseline-dir", ".", "directory scanned for BENCH_PR<k>.json when -baseline is empty")
	current := flag.String("current", "", "fresh pdxbench -json output to compare")
	threshold := flag.Float64("threshold", 0.25, "max tolerated ns/op regression (0.25 = +25%)")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "bench-compare: -current is required")
		os.Exit(2)
	}
	if *baseline == "" {
		found, err := findBaseline(*baselineDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-compare: %v\n", err)
			os.Exit(2)
		}
		*baseline = found
		fmt.Printf("baseline: %s (latest committed)\n", found)
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-compare: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-compare: %v\n", err)
		os.Exit(2)
	}
	if base.GoVersion != cur.GoVersion || base.NumCPU != cur.NumCPU {
		fmt.Printf("note: environments differ (baseline %s/%d cpu, current %s/%d cpu); ns/op deltas include machine skew\n",
			base.GoVersion, base.NumCPU, cur.GoVersion, cur.NumCPU)
	}

	baseByName, curByName := byName(base), byName(cur)
	names := make([]string, 0, len(curByName))
	for name := range curByName {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressions []string

	fmt.Printf("%-40s %14s %14s %8s\n", "benchmark", "baseline ns", "current ns", "delta")
	for _, name := range names {
		c := curByName[name]
		b, ok := baseByName[name]
		if !ok {
			fmt.Printf("%-40s %14s %14d %8s\n", name, "(new)", c.NsPerOp, "-")
			continue
		}
		ratio := float64(c.NsPerOp)/float64(b.NsPerOp) - 1
		mark := ""
		if ratio > *threshold {
			mark = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %d -> %d ns/op (%+.1f%%, limit %+.0f%%)", name, b.NsPerOp, c.NsPerOp, 100*ratio, 100**threshold))
		}
		fmt.Printf("%-40s %14d %14d %+7.1f%%%s\n", name, b.NsPerOp, c.NsPerOp, 100*ratio, mark)
		if b.Steps != 0 && c.Steps != 0 && b.Steps != c.Steps {
			fmt.Printf("%-40s   steps changed: %d -> %d\n", "", b.Steps, c.Steps)
		}
		if b.Nodes != 0 && c.Nodes != 0 && b.Nodes != c.Nodes {
			fmt.Printf("%-40s   nodes changed: %d -> %d\n", "", b.Nodes, c.Nodes)
		}
	}
	var retired []string
	for name := range baseByName {
		if _, ok := curByName[name]; !ok {
			retired = append(retired, name)
		}
	}
	sort.Strings(retired)
	for _, name := range retired {
		fmt.Printf("%-40s retired (baseline only)\n", name)
	}

	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\nbench-compare: %d regression(s) beyond the %.0f%% gate:\n", len(regressions), 100**threshold)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Printf("\nbench-compare: ok (%d compared, gate %.0f%%)\n", len(curByName), 100**threshold)
}
