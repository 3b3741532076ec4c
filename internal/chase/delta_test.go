package chase_test

import (
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/workload"
)

// TestChaseSemiNaiveMatchesNaiveProperty: on random weakly acyclic
// dependency sets (mixing full tgds, existential inclusions, join
// bodies, and key egds), the semi-naive chase is byte-identical to the
// naive reference chase (oracle.Chase) — same instances (including null
// labels), step and merge counts, failure verdicts, and budget errors.
// This is the correctness contract of the delta-driven trigger collection: it may
// only skip triggers the naive keep filter would reject anyway.
func TestChaseSemiNaiveMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	trials := 60
	for trial := 0; trial < trials; trial++ {
		deps := workload.RandomWeaklyAcyclicDeps(rng)
		inst := workload.RandomLayerInstance(rng)
		inst.Freeze()
		want := referenceChase(inst, deps, nil)
		semi, serr := chase.Run(inst, deps, chase.Options{})
		if got := fingerprint(semi, serr); got != want {
			t.Fatalf("trial %d: semi-naive diverges from the reference chase\nsemi-naive: %+v\noracle:     %+v\ndeps: %v",
				trial, got, want, deps)
		}
	}
}

// TestChaseSemiNaiveMatchesNaiveSolutionAware: the parity holds for the
// solution-aware chase of Definitions 6–7 as well.
func TestChaseSemiNaiveMatchesNaiveSolutionAware(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 50; trial++ {
		deps := workload.RandomWeaklyAcyclicDeps(rng)
		inst := workload.RandomLayerInstance(rng)
		wres, err := chase.Run(inst, deps, chase.Options{})
		if err != nil || wres.Failed {
			continue
		}
		witness := wres.Instance
		witness.Freeze()
		inst.Freeze()
		want := referenceChase(inst, deps, witness)
		semi, serr := chase.RunSolutionAware(inst, deps, witness, chase.Options{})
		if got := fingerprint(semi, serr); got != want {
			t.Fatalf("trial %d: solution-aware parity broken\nsemi-naive: %+v\noracle:     %+v", trial, got, want)
		}
	}
}

// TestChaseSemiNaiveDeepChain: the deep-recursion shape the semi-naive
// chase exists for — a chain tgd cascade where each round adds one
// layer of facts — still produces the exact naive result. The chain
// chase fires depth × n steps over depth+1 rounds, so deltas shrink to
// a sliver of the instance in every round after the first.
func TestChaseSemiNaiveDeepChain(t *testing.T) {
	deps := workload.ChainDeps(6)
	inst := workload.ChainInstance(40)
	inst.Freeze()
	want := referenceChase(inst, deps, nil)
	semi, serr := chase.Run(inst, deps, chase.Options{})
	if serr != nil {
		t.Fatalf("chain chase errored: %v", serr)
	}
	if got := fingerprint(semi, nil); got != want {
		t.Fatalf("chain chase diverges from the reference chase (steps %d vs %d)", got.steps, want.steps)
	}
	if w := 6 * 40; semi.Steps != w {
		t.Fatalf("chain chase fired %d steps, want %d", semi.Steps, w)
	}
}
