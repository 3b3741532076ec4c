package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
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

// TestTractableParallelMatchesSerial: on 60 random workloads from the
// three families, the parallel Figure 3 algorithm returns the same
// verdict AND the same full trace (canonical instances, block counts,
// failing block index, step counts) as the serial run.
func TestTractableParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	wls := parallelWorkloads(rng)
	if len(wls) < 50 {
		t.Fatalf("only %d workloads generated, want >= 50", len(wls))
	}
	for _, wl := range wls {
		refOK, refTr, refErr := wl.run(core.TractableOptions{Config: par.Config{Parallelism: 1}})
		for _, workers := range []int{2, 4} {
			gotOK, gotTr, err := wl.run(core.TractableOptions{Config: par.Config{Parallelism: workers, Seed: 5}})
			if (refErr == nil) != (err == nil) {
				t.Fatalf("%s par=%d: err=%v, serial err=%v", wl.name, workers, err, refErr)
			}
			if refErr != nil {
				continue
			}
			if gotOK != refOK {
				t.Fatalf("%s par=%d: verdict %v, serial %v", wl.name, workers, gotOK, refOK)
			}
			if gotTr.Blocks != refTr.Blocks || gotTr.MaxBlockNulls != refTr.MaxBlockNulls ||
				gotTr.FailedBlock != refTr.FailedBlock ||
				gotTr.StepsST != refTr.StepsST || gotTr.StepsTS != refTr.StepsTS {
				t.Fatalf("%s par=%d: trace %+v, serial %+v", wl.name, workers,
					struct{ B, M, F, S1, S2 int }{gotTr.Blocks, gotTr.MaxBlockNulls, gotTr.FailedBlock, gotTr.StepsST, gotTr.StepsTS},
					struct{ B, M, F, S1, S2 int }{refTr.Blocks, refTr.MaxBlockNulls, refTr.FailedBlock, refTr.StepsST, refTr.StepsTS})
			}
			if gotTr.JCan.String() != refTr.JCan.String() || gotTr.ICan.String() != refTr.ICan.String() {
				t.Fatalf("%s par=%d: canonical instances differ from serial run", wl.name, workers)
			}
		}
	}
}

// TestGenericSolverParallelMatchesSerial: the generic solver's verdict
// and node count are identical under parallelism (the violation scan
// returns the minimal violated dependency, so backjumping follows the
// same path).
func TestGenericSolverParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(15)
		good := trial%2 == 0
		seed := rng.Int63()
		s := workload.GenomicSetting()
		i, j := workload.GenomicInstance(n, good, rand.New(rand.NewSource(seed)))
		refOK, _, refStats, refErr := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{Config: par.Config{Parallelism: 1}})
		for _, workers := range []int{2, 4} {
			gotOK, _, gotStats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{Config: par.Config{Parallelism: workers}})
			if (refErr == nil) != (err == nil) {
				t.Fatalf("trial %d par=%d: err=%v, serial err=%v", trial, workers, err, refErr)
			}
			if refErr != nil {
				continue
			}
			if gotOK != refOK || gotStats.Nodes != refStats.Nodes || gotStats.Solutions != refStats.Solutions {
				t.Fatalf("trial %d par=%d: (ok=%v nodes=%d sols=%d), serial (ok=%v nodes=%d sols=%d)",
					trial, workers, gotOK, gotStats.Nodes, gotStats.Solutions, refOK, refStats.Nodes, refStats.Solutions)
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
	refOK, refTr, refErr := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{Config: par.Config{Parallelism: 1}})
	if refErr != nil || !refOK {
		t.Fatalf("reference run failed: ok=%v err=%v", refOK, refErr)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	failures := make([]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ok, tr, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{Config: par.Config{Parallelism: 2, Seed: int64(g + 1)}})
			switch {
			case err != nil:
				failures[g] = fmt.Sprintf("err=%v", err)
			case ok != refOK:
				failures[g] = fmt.Sprintf("verdict %v, want %v", ok, refOK)
			case tr.Blocks != refTr.Blocks || tr.StepsST != refTr.StepsST || tr.StepsTS != refTr.StepsTS:
				failures[g] = "trace diverged"
			}
		}(g)
	}
	wg.Wait()
	for g, f := range failures {
		if f != "" {
			t.Fatalf("goroutine %d: %s", g, f)
		}
	}
}
