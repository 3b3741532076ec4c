// The oblivious chase is not a mode of the engine: the reference chase,
// oracle.Chase, is its only implementation. These tests pin it from the
// chase package's side, in an external test package because oracle
// imports core, which imports chase.
package chase_test

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/dep"
	"repro/internal/oracle"
	"repro/internal/rel"
)

// TestObliviousChaseFiresAnyway: the oblivious chase fires a trigger
// whose head is already satisfied, where the restricted engine does
// not, and fires it only once.
func TestObliviousChaseFiresAnyway(t *testing.T) {
	d := dep.TGD{
		Label: "ex",
		Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
		Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y"))},
	}
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a"))
	inst.Add("B", rel.Const("a"), rel.Const("b"))
	inst.Freeze()
	deps := []dep.Dependency{d}
	res, err := oracle.Chase(inst, deps, nil, true, chase.DefaultMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Errorf("oblivious chase steps = %d, want 1", res.Steps)
	}
	if res.Instance.Relation("B").Len() != 2 {
		t.Errorf("oblivious chase should add a second B tuple:\n%s", res.Instance)
	}
	// And it must not refire the same trigger forever.
	res2, err := oracle.Chase(inst, deps, nil, true, 50)
	if err != nil {
		t.Fatalf("oblivious chase diverged: %v", err)
	}
	if res2.Steps != 1 {
		t.Errorf("oblivious trigger fired %d times", res2.Steps)
	}
	restricted, err := chase.Run(inst, deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restricted.Steps != 0 {
		t.Errorf("restricted engine fired %d steps on a satisfied trigger", restricted.Steps)
	}
}

// TestObliviousTriggerKeyDistinguishesKinds: a constant named like a
// null's rendering must not collide in the fired-trigger bookkeeping.
func TestObliviousTriggerKeyDistinguishesKinds(t *testing.T) {
	d := dep.TGD{
		Label: "mk",
		Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
		Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("u"))},
	}
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("_N1")) // adversarial constant text
	inst.Add("A", rel.Null(1))
	res, err := oracle.Chase(inst, []dep.Dependency{d}, nil, true, chase.DefaultMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2 distinct trigger firings", res.Steps)
	}
}
