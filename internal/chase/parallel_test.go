package chase_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/par"
	"repro/internal/workload"
)

// TestChaseParallelMatchesSerial: on random weakly acyclic dependency
// sets, the parallel chase produces a byte-identical Result — the same
// instance (including null labels), step count, and failure report — as
// the serial chase, at every parallelism level and seed.
func TestChaseParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 60; trial++ {
		deps := workload.RandomWeaklyAcyclicDeps(rng)
		inst := workload.RandomLayerInstance(rng)
		inst.Freeze()
		ref, refErr := chase.Run(inst, deps, chase.Options{Config: par.Config{Parallelism: 1}})
		for _, workers := range []int{2, 4} {
			for _, seed := range []int64{0, 19} {
				got, err := chase.Run(inst, deps, chase.Options{Config: par.Config{Parallelism: workers, Seed: seed}})
				if (refErr == nil) != (err == nil) {
					t.Fatalf("trial %d par=%d: err=%v, serial err=%v", trial, workers, err, refErr)
				}
				if refErr != nil {
					continue
				}
				if got.Steps != ref.Steps || got.Failed != ref.Failed || got.FailedOn != ref.FailedOn {
					t.Fatalf("trial %d par=%d seed=%d: (steps=%d failed=%v on=%q), serial (steps=%d failed=%v on=%q)",
						trial, workers, seed, got.Steps, got.Failed, got.FailedOn, ref.Steps, ref.Failed, ref.FailedOn)
				}
				if got.Instance.String() != ref.Instance.String() {
					t.Fatalf("trial %d par=%d seed=%d: instances differ\nparallel:\n%s\nserial:\n%s",
						trial, workers, seed, got.Instance, ref.Instance)
				}
			}
		}
	}
}

// TestChaseSolutionAwareParallelMatchesSerial: the solution-aware chase
// is byte-identical under parallelism too.
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
		ref, refErr := chase.RunSolutionAware(inst, deps, witness, chase.Options{Config: par.Config{Parallelism: 1}})
		got, err := chase.RunSolutionAware(inst, deps, witness, chase.Options{Config: par.Config{Parallelism: 4}})
		if (refErr == nil) != (err == nil) {
			t.Fatalf("trial %d: err=%v, serial err=%v", trial, err, refErr)
		}
		if refErr != nil {
			continue
		}
		if got.Steps != ref.Steps || got.Instance.String() != ref.Instance.String() {
			t.Fatalf("trial %d: parallel solution-aware chase diverged (steps %d vs %d)", trial, got.Steps, ref.Steps)
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
	ref, refErr := chase.Run(inst, deps, chase.Options{Config: par.Config{Parallelism: 1}})
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	results := make([]*chase.Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = chase.Run(inst, deps, chase.Options{Config: par.Config{Parallelism: 2, Seed: int64(g)}})
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if (refErr == nil) != (errs[g] == nil) {
			t.Fatalf("goroutine %d: err=%v, serial err=%v", g, errs[g], refErr)
		}
		if refErr != nil {
			continue
		}
		if results[g].Steps != ref.Steps || results[g].Instance.String() != ref.Instance.String() {
			t.Fatalf("goroutine %d diverged from the serial chase", g)
		}
	}
	if !inst.Frozen() {
		t.Fatal("shared instance lost its frozen mark")
	}
}
