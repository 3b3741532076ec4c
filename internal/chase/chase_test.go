package chase

import (
	"errors"
	"testing"

	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

func pathToH() dep.TGD {
	return dep.TGD{
		Label: "st",
		Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("z")), dep.NewAtom("E", dep.Var("z"), dep.Var("y"))},
		Head:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))},
	}
}

func existBTgd() dep.TGD {
	return dep.TGD{
		Label: "ex",
		Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
		Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y"))},
	}
}

func TestChaseFullTGD(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("E", rel.Const("a"), rel.Const("b"))
	inst.Add("E", rel.Const("b"), rel.Const("c"))
	res, err := Run(inst, []dep.Dependency{pathToH()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Instance.Contains(rel.Fact{Rel: "H", Args: rel.Tuple{rel.Const("a"), rel.Const("c")}}) {
		t.Errorf("H(a,c) not derived:\n%s", res.Instance)
	}
	if res.Steps != 1 {
		t.Errorf("steps = %d, want 1", res.Steps)
	}
	if inst.Relation("H") != nil {
		t.Error("Run mutated its input")
	}
}

func TestChaseExistentialCreatesNull(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a"))
	res, err := Run(inst, []dep.Dependency{existBTgd()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Instance.Relation("B")
	if b == nil || b.Len() != 1 {
		t.Fatalf("B not populated:\n%s", res.Instance)
	}
	tup := b.TupleAt(0)
	if tup[0] != rel.Const("a") || !tup[1].IsNull() {
		t.Errorf("B tuple = %v, want (a, null)", tup)
	}
}

// TestChaseVariableFreeTGD: a tgd whose body and head name no variable
// has one trigger, an empty slot vector, which must still fire (and,
// with an existential head, still draw its null).
func TestChaseVariableFreeTGD(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("U", rel.Const("b"), rel.Const("a"))
	ground := dep.TGD{
		Label: "g",
		Body:  []dep.Atom{dep.NewAtom("U", dep.Cst("b"), dep.Cst("a"))},
		Head:  []dep.Atom{dep.NewAtom("T", dep.Cst("a"), dep.Cst("a"))},
	}
	exist := dep.TGD{
		Label: "e",
		Body:  []dep.Atom{dep.NewAtom("U", dep.Cst("b"), dep.Cst("a"))},
		Head:  []dep.Atom{dep.NewAtom("V", dep.Var("y"))},
	}
	res, err := Run(inst, []dep.Dependency{ground, exist}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Instance.Contains(rel.Fact{Rel: "T", Args: rel.Tuple{rel.Const("a"), rel.Const("a")}}) {
		t.Errorf("T(a,a) not derived:\n%s", res.Instance)
	}
	if v := res.Instance.Relation("V"); v == nil || v.Len() != 1 || !v.TupleAt(0)[0].IsNull() {
		t.Errorf("V(null) not derived:\n%s", res.Instance)
	}
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2", res.Steps)
	}
}

func TestRestrictedChaseSkipsSatisfiedTrigger(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a"))
	inst.Add("B", rel.Const("a"), rel.Const("b"))
	res, err := Run(inst, []dep.Dependency{existBTgd()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 0 || res.Instance.NumFacts() != 2 {
		t.Errorf("restricted chase fired on satisfied trigger: steps=%d\n%s", res.Steps, res.Instance)
	}
}

func TestEGDMergesNullWithConstant(t *testing.T) {
	egd := dep.EGD{
		Label: "key",
		Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y")), dep.NewAtom("B", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}
	inst := rel.NewInstance()
	inst.Add("B", rel.Const("a"), rel.Const("b"))
	inst.Add("B", rel.Const("a"), rel.Null(1))
	res, err := Run(inst, []dep.Dependency{egd}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("merge with null must not fail")
	}
	if res.Instance.NumFacts() != 1 {
		t.Errorf("expected 1 fact after merge:\n%s", res.Instance)
	}
	if res.Instance.HasNulls() {
		t.Error("null survived the merge")
	}
}

func TestEGDFailsOnDistinctConstants(t *testing.T) {
	egd := dep.EGD{
		Label: "key",
		Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y")), dep.NewAtom("B", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}
	inst := rel.NewInstance()
	inst.Add("B", rel.Const("a"), rel.Const("b"))
	inst.Add("B", rel.Const("a"), rel.Const("c"))
	res, err := Run(inst, []dep.Dependency{egd}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.FailedOn != "key" {
		t.Errorf("expected failing chase, got %+v", res)
	}
}

func TestEGDMergesTwoNulls(t *testing.T) {
	egd := dep.EGD{
		Label: "key",
		Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y")), dep.NewAtom("B", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}
	inst := rel.NewInstance()
	inst.Add("B", rel.Const("a"), rel.Null(1))
	inst.Add("B", rel.Const("a"), rel.Null(2))
	res, err := Run(inst, []dep.Dependency{egd}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Instance.NumFacts() != 1 {
		t.Errorf("null/null merge wrong: failed=%v\n%s", res.Failed, res.Instance)
	}
}

func TestCyclicChaseExhaustsBudget(t *testing.T) {
	cyc := dep.TGD{
		Label: "cyc",
		Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		Head:  []dep.Atom{dep.NewAtom("T", dep.Var("y"), dep.Var("z"))},
	}
	if dep.WeaklyAcyclic([]dep.TGD{cyc}) {
		t.Fatal("test dependency should be cyclic")
	}
	inst := rel.NewInstance()
	inst.Add("T", rel.Const("a"), rel.Const("b"))
	_, err := Run(inst, []dep.Dependency{cyc}, Options{MaxSteps: 100})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("expected budget exhaustion, got %v", err)
	}
}

func TestWeaklyAcyclicChaseTerminates(t *testing.T) {
	chain := []dep.Dependency{
		dep.TGD{
			Label: "c1",
			Body:  []dep.Atom{dep.NewAtom("T0", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T1", dep.Var("y"), dep.Var("z"))},
		},
		dep.TGD{
			Label: "c2",
			Body:  []dep.Atom{dep.NewAtom("T1", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T2", dep.Var("y"), dep.Var("z"))},
		},
	}
	inst := rel.NewInstance()
	for i := 0; i < 10; i++ {
		inst.Add("T0", rel.Const(string(rune('a'+i))), rel.Const(string(rune('b'+i))))
	}
	res, err := Run(inst, chain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Check(res.Instance, chain, hom.Options{}) {
		t.Error("chase fixpoint does not satisfy dependencies")
	}
	if res.Steps != 20 {
		t.Errorf("steps = %d, want 20", res.Steps)
	}
}

func TestChaseResultSatisfiesDeps(t *testing.T) {
	deps := []dep.Dependency{pathToH(), existBTgd()}
	inst := rel.NewInstance()
	inst.Add("E", rel.Const("a"), rel.Const("b"))
	inst.Add("E", rel.Const("b"), rel.Const("c"))
	inst.Add("E", rel.Const("c"), rel.Const("a"))
	inst.Add("A", rel.Const("q"))
	res, err := Run(inst, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Check(res.Instance, deps, hom.Options{}) {
		t.Errorf("fixpoint violates dependencies:\n%s", res.Instance)
	}
}

func TestSolutionAwareChaseUsesWitnessValues(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a"))
	witness := rel.NewInstance()
	witness.Add("A", rel.Const("a"))
	witness.Add("B", rel.Const("a"), rel.Const("w"))
	res, err := RunSolutionAware(inst, []dep.Dependency{existBTgd()}, witness, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance.HasNulls() {
		t.Error("solution-aware chase created a null")
	}
	if !witness.ContainsAll(res.Instance) {
		t.Errorf("solution-aware result not contained in witness:\n%s", res.Instance)
	}
	if !res.Instance.Contains(rel.Fact{Rel: "B", Args: rel.Tuple{rel.Const("a"), rel.Const("w")}}) {
		t.Error("witness value not used")
	}
}

func TestSolutionAwareChaseBadWitness(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a"))
	witness := rel.NewInstance()
	witness.Add("A", rel.Const("a")) // violates the tgd: no B fact
	_, err := RunSolutionAware(inst, []dep.Dependency{existBTgd()}, witness, Options{})
	if err == nil {
		t.Error("expected error for witness violating the tgds")
	}
}

func TestChaseRejectsDisjunctive(t *testing.T) {
	d := dep.DisjunctiveTGD{
		Label:     "d",
		Body:      []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
		Disjuncts: [][]dep.Atom{{dep.NewAtom("B", dep.Var("x"), dep.Var("x"))}},
	}
	if _, err := Run(rel.NewInstance(), []dep.Dependency{d}, Options{}); err == nil {
		t.Error("chase must reject disjunctive tgds")
	}
	if _, err := RunSolutionAware(rel.NewInstance(), []dep.Dependency{d}, rel.NewInstance(), Options{}); err == nil {
		t.Error("solution-aware chase must reject disjunctive tgds")
	}
}

func TestCheckViolations(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a"))
	viols := Violations(inst, []dep.Dependency{existBTgd()}, hom.Options{})
	if len(viols) != 1 || viols[0].Dep != "ex" {
		t.Errorf("violations = %v", viols)
	}
	if Check(inst, []dep.Dependency{existBTgd()}, hom.Options{}) {
		t.Error("Check passed a violated instance")
	}
}

func TestCheckDisjunctiveTGD(t *testing.T) {
	d := dep.DisjunctiveTGD{
		Label: "color",
		Body:  []dep.Atom{dep.NewAtom("V", dep.Var("x"))},
		Disjuncts: [][]dep.Atom{
			{dep.NewAtom("R", dep.Var("x"))},
			{dep.NewAtom("B", dep.Var("x"))},
		},
	}
	inst := rel.NewInstance()
	inst.Add("V", rel.Const("v1"))
	inst.Add("B", rel.Const("v1"))
	if !Check(inst, []dep.Dependency{d}, hom.Options{}) {
		t.Error("satisfied disjunct not recognized")
	}
	inst2 := rel.NewInstance()
	inst2.Add("V", rel.Const("v1"))
	if Check(inst2, []dep.Dependency{d}, hom.Options{}) {
		t.Error("violated disjunctive tgd passed")
	}
}

func TestCheckEGD(t *testing.T) {
	egd := dep.EGD{
		Label: "key",
		Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y")), dep.NewAtom("B", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}
	ok := rel.NewInstance()
	ok.Add("B", rel.Const("a"), rel.Const("b"))
	if !Check(ok, []dep.Dependency{egd}, hom.Options{}) {
		t.Error("satisfied egd reported violated")
	}
	bad := rel.NewInstance()
	bad.Add("B", rel.Const("a"), rel.Const("b"))
	bad.Add("B", rel.Const("a"), rel.Const("c"))
	viols := Violations(bad, []dep.Dependency{egd}, hom.Options{})
	if len(viols) == 0 {
		t.Error("violated egd not reported")
	}
}

func TestViolationStringRendering(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a"))
	viols := Violations(inst, []dep.Dependency{existBTgd()}, hom.Options{})
	if len(viols) != 1 {
		t.Fatal("expected one violation")
	}
	if viols[0].String() == "" {
		t.Error("empty violation string")
	}
}

// Lemma 1 shape: the solution-aware chase length is bounded by a
// polynomial in |K| for weakly acyclic dependencies. Here: linear for a
// copy tgd.
func TestSolutionAwareChaseLengthLinear(t *testing.T) {
	copyTgd := dep.TGD{
		Label: "copy",
		Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
		Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y"))},
	}
	for _, n := range []int{5, 10, 20} {
		inst := rel.NewInstance()
		witness := rel.NewInstance()
		for i := 0; i < n; i++ {
			v := rel.Const(string(rune('a' + i)))
			inst.Add("A", v)
			witness.Add("A", v)
			witness.Add("B", v, rel.Const("w"))
		}
		res, err := RunSolutionAware(inst, []dep.Dependency{copyTgd}, witness, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != n {
			t.Errorf("n=%d: steps = %d, want %d", n, res.Steps, n)
		}
	}
}
