package chase_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/workload"
)

// runParallel calls run from n goroutines at once and returns what
// each call returned.
func runParallel(n int, run func() (*chase.Result, error)) ([]*chase.Result, []error) {
	results := make([]*chase.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = run()
		}(g)
	}
	wg.Wait()
	return results, errs
}

// sameResult describes how got differs from the serial reference, or
// returns "" when the two agree byte for byte.
func sameResult(got *chase.Result, err error, ref *chase.Result, refErr error) string {
	if (refErr == nil) != (err == nil) {
		return fmt.Sprintf("err=%v, serial err=%v", err, refErr)
	}
	if refErr != nil {
		return ""
	}
	if got.Steps != ref.Steps || got.Failed != ref.Failed || got.FailedOn != ref.FailedOn {
		return fmt.Sprintf("(steps=%d failed=%v on=%q), serial (steps=%d failed=%v on=%q)",
			got.Steps, got.Failed, got.FailedOn, ref.Steps, ref.Failed, ref.FailedOn)
	}
	if got.Instance.String() != ref.Instance.String() {
		return fmt.Sprintf("instances differ\nparallel:\n%s\nserial:\n%s", got.Instance, ref.Instance)
	}
	return ""
}

// TestChaseParallelMatchesSerial: on random weakly acyclic dependency
// sets, chase runs issued in parallel on one frozen start instance each
// produce a byte-identical Result — the same instance (including null
// labels), step count, and failure report — as a serial run.
func TestChaseParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 60; trial++ {
		deps := workload.RandomWeaklyAcyclicDeps(rng)
		inst := workload.RandomLayerInstance(rng)
		inst.Freeze()
		ref, refErr := chase.Run(inst, deps, chase.Options{})
		results, errs := runParallel(2, func() (*chase.Result, error) {
			return chase.Run(inst, deps, chase.Options{})
		})
		for g := range results {
			if diff := sameResult(results[g], errs[g], ref, refErr); diff != "" {
				t.Fatalf("trial %d caller %d: %s", trial, g, diff)
			}
		}
	}
}

// TestChaseSolutionAwareParallelMatchesSerial: the solution-aware chase
// is byte-identical when runs share a frozen instance and witness in
// parallel too.
func TestChaseSolutionAwareParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		deps := workload.RandomWeaklyAcyclicDeps(rng)
		inst := workload.RandomLayerInstance(rng)
		wres, err := chase.Run(inst, deps, chase.Options{})
		if err != nil || wres.Failed {
			continue
		}
		witness := wres.Instance
		witness.Freeze()
		inst.Freeze()
		ref, refErr := chase.RunSolutionAware(inst, deps, witness, chase.Options{})
		results, errs := runParallel(2, func() (*chase.Result, error) {
			return chase.RunSolutionAware(inst, deps, witness, chase.Options{})
		})
		for g := range results {
			if diff := sameResult(results[g], errs[g], ref, refErr); diff != "" {
				t.Fatalf("trial %d caller %d: solution-aware chase diverged: %s", trial, g, diff)
			}
		}
	}
}

// TestChaseConcurrentStress: many goroutines chase the same frozen
// start instance with the same dependencies concurrently; every run
// must agree with the serial reference. Run under -race this validates
// the freeze-after-build discipline end to end.
func TestChaseConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	deps := workload.RandomWeaklyAcyclicDeps(rng)
	inst := workload.RandomLayerInstance(rng)
	inst.Freeze()
	ref, refErr := chase.Run(inst, deps, chase.Options{})
	results, errs := runParallel(8, func() (*chase.Result, error) {
		return chase.Run(inst, deps, chase.Options{})
	})
	for g := range results {
		if diff := sameResult(results[g], errs[g], ref, refErr); diff != "" {
			t.Fatalf("goroutine %d diverged from the serial chase: %s", g, diff)
		}
	}
	if !inst.Frozen() {
		t.Fatal("shared instance lost its frozen mark")
	}
}
