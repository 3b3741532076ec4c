package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// parallelWorkloads enumerates random instances of the three workload
// families with both solvable and unsolvable variants — at least 50
// workloads in total.
func parallelWorkloads(rng *rand.Rand) []struct {
	name string
	run  func(opts core.TractableOptions) (bool, *core.TractableTrace, error)
} {
	type wl = struct {
		name string
		run  func(opts core.TractableOptions) (bool, *core.TractableTrace, error)
	}
	var out []wl
	for trial := 0; trial < 18; trial++ {
		n := 10 + rng.Intn(60)
		good := trial%2 == 0
		seed := rng.Int63()
		{
			s := workload.LAVSetting()
			i, j := workload.LAVInstance(n, good, rand.New(rand.NewSource(seed)))
			i.Freeze()
			j.Freeze()
			out = append(out, wl{
				name: fmt.Sprintf("lav/n=%d/solvable=%v", n, good),
				run: func(opts core.TractableOptions) (bool, *core.TractableTrace, error) {
					return core.ExistsSolutionTractable(s, i, j, opts)
				},
			})
		}
		{
			s := workload.FullSTSetting()
			i, j := workload.FullSTInstance(n, good, rand.New(rand.NewSource(seed)))
			i.Freeze()
			j.Freeze()
			out = append(out, wl{
				name: fmt.Sprintf("fullst/n=%d/solvable=%v", n, good),
				run: func(opts core.TractableOptions) (bool, *core.TractableTrace, error) {
					return core.ExistsSolutionTractable(s, i, j, opts)
				},
			})
		}
		{
			s := workload.GenomicSetting()
			i, j := workload.GenomicInstance(n, good, rand.New(rand.NewSource(seed)))
			i.Freeze()
			j.Freeze()
			out = append(out, wl{
				name: fmt.Sprintf("genomic/n=%d/clean=%v", n, good),
				run: func(opts core.TractableOptions) (bool, *core.TractableTrace, error) {
					return core.ExistsSolutionTractable(s, i, j, opts)
				},
			})
		}
	}
	return out
}

// inParallel calls run(g) for g in [0, n) from n goroutines at once.
func inParallel(n int, run func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run(g)
		}(g)
	}
	wg.Wait()
}

// TestTractableConcurrentCallsMatchSerial: on 60 random workloads from the
// three families, Figure 3 runs issued in parallel on shared frozen
// inputs each return the same verdict AND the same full trace
// (canonical instances, block counts, failing block index, step counts)
// as a serial run.
func TestTractableConcurrentCallsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	wls := parallelWorkloads(rng)
	if len(wls) < 50 {
		t.Fatalf("only %d workloads generated, want >= 50", len(wls))
	}
	for _, wl := range wls {
		refOK, refTr, refErr := wl.run(core.TractableOptions{})
		failures := make([]string, 2)
		inParallel(len(failures), func(g int) {
			gotOK, gotTr, err := wl.run(core.TractableOptions{})
			switch {
			case (refErr == nil) != (err == nil):
				failures[g] = fmt.Sprintf("err=%v, serial err=%v", err, refErr)
			case refErr != nil:
			case gotOK != refOK:
				failures[g] = fmt.Sprintf("verdict %v, serial %v", gotOK, refOK)
			case gotTr.Blocks != refTr.Blocks || gotTr.MaxBlockNulls != refTr.MaxBlockNulls ||
				gotTr.FailedBlock != refTr.FailedBlock ||
				gotTr.StepsST != refTr.StepsST || gotTr.StepsTS != refTr.StepsTS:
				failures[g] = fmt.Sprintf("trace %+v, serial %+v",
					struct{ B, M, F, S1, S2 int }{gotTr.Blocks, gotTr.MaxBlockNulls, gotTr.FailedBlock, gotTr.StepsST, gotTr.StepsTS},
					struct{ B, M, F, S1, S2 int }{refTr.Blocks, refTr.MaxBlockNulls, refTr.FailedBlock, refTr.StepsST, refTr.StepsTS})
			case gotTr.JCan.String() != refTr.JCan.String() || gotTr.ICan.String() != refTr.ICan.String():
				failures[g] = "canonical instances differ from serial run"
			}
		})
		for g, f := range failures {
			if f != "" {
				t.Fatalf("%s caller %d: %s", wl.name, g, f)
			}
		}
	}
}

// TestGenericSolverConcurrentCallsMatchSerial: generic solves issued in
// parallel on shared frozen inputs each return the verdict, node count
// and solution count of a serial solve (the searcher pool and the
// shared setting hold no per-solve state).
func TestGenericSolverConcurrentCallsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(15)
		good := trial%2 == 0
		seed := rng.Int63()
		s := workload.GenomicSetting()
		i, j := workload.GenomicInstance(n, good, rand.New(rand.NewSource(seed)))
		i.Freeze()
		j.Freeze()
		refOK, _, refStats, refErr := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
		failures := make([]string, 2)
		inParallel(len(failures), func(g int) {
			gotOK, _, gotStats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
			switch {
			case (refErr == nil) != (err == nil):
				failures[g] = fmt.Sprintf("err=%v, serial err=%v", err, refErr)
			case refErr != nil:
			case gotOK != refOK || gotStats.Nodes != refStats.Nodes || gotStats.Solutions != refStats.Solutions:
				failures[g] = fmt.Sprintf("(ok=%v nodes=%d sols=%d), serial (ok=%v nodes=%d sols=%d)",
					gotOK, gotStats.Nodes, gotStats.Solutions, refOK, refStats.Nodes, refStats.Solutions)
			}
		})
		for g, f := range failures {
			if f != "" {
				t.Fatalf("trial %d caller %d: %s", trial, g, f)
			}
		}
	}
}

// TestTractableConcurrentStress: N goroutines run the Figure 3
// algorithm concurrently over shared frozen settings and instances.
// Under -race this validates that the solver takes no hidden write
// locks on its inputs.
func TestTractableConcurrentStress(t *testing.T) {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(97))
	i, j := workload.LAVInstance(120, true, rng)
	i.Freeze()
	j.Freeze()
	refOK, refTr, refErr := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
	if refErr != nil || !refOK {
		t.Fatalf("reference run failed: ok=%v err=%v", refOK, refErr)
	}
	failures := make([]string, 8)
	inParallel(len(failures), func(g int) {
		ok, tr, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
		switch {
		case err != nil:
			failures[g] = fmt.Sprintf("err=%v", err)
		case ok != refOK:
			failures[g] = fmt.Sprintf("verdict %v, want %v", ok, refOK)
		case tr.Blocks != refTr.Blocks || tr.StepsST != refTr.StepsST || tr.StepsTS != refTr.StepsTS:
			failures[g] = "trace diverged"
		}
	})
	for g, f := range failures {
		if f != "" {
			t.Fatalf("goroutine %d: %s", g, f)
		}
	}
}
