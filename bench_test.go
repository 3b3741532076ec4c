// Package repro's root benchmarks time the two registries: BenchmarkPaper
// runs every paper experiment (internal/paperexp, printed and checked
// by cmd/pdxbench), and BenchmarkSuite runs the perf registry
// (internal/perfsuite) that `pdxbench -json` records. See DESIGN.md §4
// for the experiment index and EXPERIMENTS.md for recorded results.
package repro

import (
	"testing"

	"repro/internal/paperexp"
	"repro/internal/perfsuite"
)

// BenchmarkSuite runs every perf-registry case (EXP-T4-*, EXP-PAR,
// EXP-DELTA, EXP-UF and the serving paths) as a sub-benchmark named
// after it; select by name, e.g. -bench 'Suite/keyed'.
func BenchmarkSuite(b *testing.B) {
	for _, c := range perfsuite.Cases() {
		b.Run(c.Name, c.Benchmark())
	}
}

// BenchmarkPaper times each paper experiment's run as a sub-benchmark
// named after its ID, e.g. -bench 'Paper/EXP-T3$', and checks the claim
// on the last table it built.
func BenchmarkPaper(b *testing.B) {
	for _, e := range paperexp.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			var tab *paperexp.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tab, err = e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := e.Claim(tab); err != nil {
				b.Fatalf("claim: %v", err)
			}
		})
	}
}
