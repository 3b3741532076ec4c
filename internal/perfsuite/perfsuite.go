// Package perfsuite is the one registry of timed workloads: each case
// has a stable name, an untimed setup, and one timed operation that
// returns its counters and fails when any of its checks does. The root
// BenchmarkSuite and `pdxbench -json` run it; scripts/bench-compare
// decodes its Report. It is not in internal/workload because its
// certain-* cases import qplan, whose in-package tests import workload.
package perfsuite

import (
	"fmt"
	"runtime"
	"testing"
)

// Counters are the domain metrics of one operation: chase steps,
// generic-solver search nodes (or relocated keys), and union-find egd
// merges and finds. A zero field is one the case does not measure.
type Counters struct {
	Steps  int   `json:"steps,omitempty"`
	Nodes  int64 `json:"nodes,omitempty"`
	Merges int   `json:"merges,omitempty"`
	Finds  int   `json:"finds,omitempty"`
}

// Op is one timed operation. It returns an error when a check fails.
type Op func() (Counters, error)

// Case is one named workload.
type Case struct {
	// Name is "<workload>/<variant>", stable across PRs: bench-compare
	// joins a run with its baseline on it.
	Name string
	// Setup builds the inputs outside the timed region and returns the
	// operation to time, or an error when a setup check fails.
	Setup func() (Op, error)
}

// Record is one case's entry of the JSON report; the counters are
// those of its last operation.
type Record struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	Counters
}

// Report is the document `pdxbench -json` writes and the committed
// BENCH_PR<k>.json baselines hold.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Record `json:"benchmarks"`
}

// Run sets c up and times its operation under testing.Benchmark. A
// failing setup or operation is returned as an error rather than
// recorded: a benchmark that fails inside testing.Benchmark reports a
// zero result.
func Run(c Case) (Record, error) {
	op, err := c.Setup()
	if err != nil {
		return Record{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	var last Counters
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if last, err = op(); err != nil {
				b.FailNow()
			}
		}
	})
	if err != nil {
		return Record{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	return Record{
		Name:        c.Name,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Counters:    last,
	}, nil
}

// RunAll runs every case in registry order and stops at the first error.
func RunAll() (*Report, error) {
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, c := range Cases() {
		rec, err := Run(c)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}
	return rep, nil
}

// Benchmark returns c as a sub-benchmark body. The setup runs once, on
// the first of the calls the testing package makes while it sizes b.N.
func (c Case) Benchmark() func(*testing.B) {
	var op Op
	var err error
	return func(b *testing.B) {
		if op == nil && err == nil {
			op, err = c.Setup()
		}
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := op(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
