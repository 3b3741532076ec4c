// The property suites live in an external test package so they can use
// the internal/workload generators: workload imports core, which
// imports chase, so an in-package test would be an import cycle.
package chase_test

import (
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// TestChaseSoundnessProperty: on random weakly acyclic dependency sets,
// the chase either fails (egd conflict) or reaches a fixpoint that
// satisfies every dependency, contains the input (modulo egd merges of
// nulls — the inputs here are null-free, so containment is exact unless
// the chase failed), and never exhausts the rank-derived budget.
func TestChaseSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 150; trial++ {
		deps := workload.RandomWeaklyAcyclicDeps(rng)
		if !dep.WeaklyAcyclic(dep.TGDs(deps)) {
			t.Fatalf("trial %d: generator produced a non-weakly-acyclic set", trial)
		}
		inst := workload.RandomLayerInstance(rng)
		budget := chase.BudgetHint(dep.TGDs(deps), inst.NumFacts())
		res, err := chase.Run(inst, deps, chase.Options{MaxSteps: budget})
		if err != nil {
			t.Fatalf("trial %d: weakly acyclic chase exhausted its budget %d: %v\ndeps: %v", trial, budget, err, deps)
		}
		if res.Failed {
			// egd failure on all-constant data is legitimate; nothing
			// further to check.
			continue
		}
		if !chase.Check(res.Instance, deps, hom.Options{}) {
			t.Fatalf("trial %d: fixpoint violates dependencies\ndeps: %v\nresult:\n%s", trial, deps, res.Instance)
		}
		if !res.Instance.ContainsAll(inst) {
			t.Fatalf("trial %d: chase lost input facts", trial)
		}
		// Restricted chase never does more steps than the oblivious one
		// (the reference chase is the only oblivious implementation).
		obl, err := oracle.Chase(inst, deps, nil, true, budget)
		if err == nil && !obl.Failed && res.Steps > obl.Steps {
			t.Fatalf("trial %d: restricted steps %d > oblivious steps %d", trial, res.Steps, obl.Steps)
		}
	}
}

// TestChaseDeterminismProperty: chasing the same input twice yields the
// same instance up to null renaming (we compare via mutual
// homomorphisms, which is exactly hom-equivalence for chase results).
func TestChaseDeterminismProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 50; trial++ {
		deps := workload.RandomWeaklyAcyclicDeps(rng)
		inst := workload.RandomLayerInstance(rng)
		r1, err1 := chase.Run(inst, deps, chase.Options{})
		r2, err2 := chase.Run(inst, deps, chase.Options{})
		if (err1 == nil) != (err2 == nil) || (err1 == nil && r1.Failed != r2.Failed) {
			t.Fatalf("trial %d: nondeterministic outcome", trial)
		}
		if err1 != nil || r1.Failed {
			continue
		}
		if r1.Steps != r2.Steps || r1.Instance.NumFacts() != r2.Instance.NumFacts() {
			t.Fatalf("trial %d: runs diverged: %d/%d steps, %d/%d facts",
				trial, r1.Steps, r2.Steps, r1.Instance.NumFacts(), r2.Instance.NumFacts())
		}
		if !hom.InstanceHomExists(r1.Instance, r2.Instance, hom.Options{}) ||
			!hom.InstanceHomExists(r2.Instance, r1.Instance, hom.Options{}) {
			t.Fatalf("trial %d: results not hom-equivalent", trial)
		}
	}
}
