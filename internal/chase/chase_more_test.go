package chase

import (
	"errors"
	"testing"

	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// TestEGDBudgetExhaustion: egd steps also consume the budget, so a
// pathological merge cascade cannot spin forever.
func TestEGDBudgetExhaustion(t *testing.T) {
	egd := dep.EGD{
		Label: "key",
		Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y")), dep.NewAtom("B", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}
	inst := rel.NewInstance()
	for k := 0; k < 50; k++ {
		inst.Add("B", rel.Const("a"), rel.Null(k+1))
	}
	// 49 merges needed; a budget of 10 must trip.
	_, err := Run(inst, []dep.Dependency{egd}, Options{MaxSteps: 10})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("expected budget exhaustion, got %v", err)
	}
	// With enough budget the cascade converges to one fact.
	res, err := Run(inst, []dep.Dependency{egd}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance.NumFacts() != 1 || res.Steps != 49 {
		t.Errorf("facts=%d steps=%d, want 1 fact in 49 steps", res.Instance.NumFacts(), res.Steps)
	}
}

// TestMixedTGDandEGDConvergence: tgds create facts whose nulls an egd
// then merges; the chase must interleave to a fixpoint satisfying both.
func TestMixedTGDandEGDConvergence(t *testing.T) {
	deps := []dep.Dependency{
		dep.TGD{
			Label: "mk",
			Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("u"))},
		},
		dep.EGD{
			Label: "key",
			Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y")), dep.NewAtom("B", dep.Var("x"), dep.Var("z"))},
			Left:  "y", Right: "z",
		},
	}
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a"))
	inst.Add("B", rel.Const("a"), rel.Const("v"))
	res, err := Run(inst, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("unexpected failure")
	}
	if !Check(res.Instance, deps, hom.Options{}) {
		t.Errorf("fixpoint violates dependencies:\n%s", res.Instance)
	}
	// The existing B(a,v) satisfies the tgd, so no new fact and no
	// merge should have been needed (restricted chase).
	if res.Instance.NumFacts() != 2 {
		t.Errorf("facts = %d:\n%s", res.Instance.NumFacts(), res.Instance)
	}
}

// TestChaseConstantsInDependency: constants in bodies restrict triggers
// and constants in heads are emitted verbatim.
func TestChaseConstantsInDependency(t *testing.T) {
	d := dep.TGD{
		Label: "admins",
		Body:  []dep.Atom{dep.NewAtom("User", dep.Var("u"), dep.Cst("admin"))},
		Head:  []dep.Atom{dep.NewAtom("Audit", dep.Var("u"), dep.Cst("flagged"))},
	}
	inst := rel.NewInstance()
	inst.Add("User", rel.Const("ada"), rel.Const("admin"))
	inst.Add("User", rel.Const("bob"), rel.Const("guest"))
	res, err := Run(inst, []dep.Dependency{d}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := rel.Fact{Rel: "Audit", Args: rel.Tuple{rel.Const("ada"), rel.Const("flagged")}}
	if !res.Instance.Contains(want) {
		t.Errorf("missing %v:\n%s", want, res.Instance)
	}
	if res.Instance.Relation("Audit").Len() != 1 {
		t.Errorf("guest row should not trigger:\n%s", res.Instance)
	}
}

// TestSolutionAwareWithEGDs: egd steps never apply when the start
// instance is contained in a witness satisfying the egds.
func TestSolutionAwareWithEGDs(t *testing.T) {
	deps := []dep.Dependency{
		dep.TGD{
			Label: "mk",
			Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("u"))},
		},
		dep.EGD{
			Label: "key",
			Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y")), dep.NewAtom("B", dep.Var("x"), dep.Var("z"))},
			Left:  "y", Right: "z",
		},
	}
	start := rel.NewInstance()
	start.Add("A", rel.Const("a"))
	witness := rel.NewInstance()
	witness.Add("A", rel.Const("a"))
	witness.Add("B", rel.Const("a"), rel.Const("w"))
	res, err := RunSolutionAware(start, deps, witness, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Instance.HasNulls() {
		t.Errorf("solution-aware run wrong: %+v\n%s", res, res.Instance)
	}
	if !witness.ContainsAll(res.Instance) {
		t.Error("result escaped the witness")
	}
}

// TestMultipleHeadAtomsShareExistential: one chase step grounds every
// head atom with the same fresh null for a shared existential variable.
func TestMultipleHeadAtomsShareExistential(t *testing.T) {
	d := dep.TGD{
		Label: "pair",
		Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
		Head: []dep.Atom{
			dep.NewAtom("L", dep.Var("x"), dep.Var("u")),
			dep.NewAtom("R", dep.Var("u"), dep.Var("x")),
		},
	}
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a"))
	res, err := Run(inst, []dep.Dependency{d}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := res.Instance.Relation("L").TupleAt(0)
	r := res.Instance.Relation("R").TupleAt(0)
	if !l[1].IsNull() || l[1] != r[0] {
		t.Errorf("existential not shared across head atoms: L=%v R=%v", l, r)
	}
}

// TestEgdOnlyFailedOnReported: the failing dependency label is surfaced.
func TestEgdOnlyFailedOnReported(t *testing.T) {
	egd1 := dep.EGD{
		Label: "harmless",
		Body:  []dep.Atom{dep.NewAtom("C", dep.Var("x"), dep.Var("y")), dep.NewAtom("C", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}
	egd2 := dep.EGD{
		Label: "violated",
		Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y")), dep.NewAtom("B", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}
	inst := rel.NewInstance()
	inst.Add("B", rel.Const("a"), rel.Const("b"))
	inst.Add("B", rel.Const("a"), rel.Const("c"))
	res, err := Run(inst, []dep.Dependency{egd1, egd2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.FailedOn != "violated" {
		t.Errorf("FailedOn = %q (failed=%v)", res.FailedOn, res.Failed)
	}
}

// TestChaseSharedNullSource: two chases sharing one NullSource never
// produce colliding labels.
func TestChaseSharedNullSource(t *testing.T) {
	d := dep.TGD{
		Label: "mk",
		Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
		Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("u"))},
	}
	ns := &rel.NullSource{}
	i1 := rel.NewInstance()
	i1.Add("A", rel.Const("a"))
	r1, err := Run(i1, []dep.Dependency{d}, Options{Nulls: ns})
	if err != nil {
		t.Fatal(err)
	}
	i2 := rel.NewInstance()
	i2.Add("A", rel.Const("b"))
	r2, err := Run(i2, []dep.Dependency{d}, Options{Nulls: ns})
	if err != nil {
		t.Fatal(err)
	}
	n1 := r1.Instance.Relation("B").TupleAt(0)[1]
	n2 := r2.Instance.Relation("B").TupleAt(0)[1]
	if n1 == n2 {
		t.Errorf("null labels collided across chases: %v", n1)
	}
}

// TestBudgetHint: rank-based budgets dominate the default for deep
// chains and saturate rather than overflow.
func TestBudgetHint(t *testing.T) {
	full := []dep.TGD{{
		Label: "full",
		Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"), dep.Var("y"))},
		Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y"))},
	}}
	if got := BudgetHint(full, 100); got != DefaultMaxSteps {
		t.Errorf("full tgds hint = %d, want default (rank 0, 100^2 < default)", got)
	}
	var chain []dep.TGD
	names := []string{"T0", "T1", "T2", "T3", "T4"}
	for i := 0; i+1 < len(names); i++ {
		chain = append(chain, dep.TGD{
			Label: "c",
			Body:  []dep.Atom{dep.NewAtom(names[i], dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom(names[i+1], dep.Var("y"), dep.Var("z"))},
		})
	}
	if got := BudgetHint(chain, 100); got <= DefaultMaxSteps {
		t.Errorf("deep chain hint = %d, should exceed the default", got)
	}
	// Saturation instead of overflow on huge inputs.
	if got := BudgetHint(chain, 1<<20); got != 1<<40 {
		t.Errorf("hint = %d, want saturation at 2^40", got)
	}
	// Cyclic sets fall back to the default.
	cyc := []dep.TGD{{
		Label: "cyc",
		Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		Head:  []dep.Atom{dep.NewAtom("T", dep.Var("y"), dep.Var("z"))},
	}}
	if got := BudgetHint(cyc, 100); got != DefaultMaxSteps {
		t.Errorf("cyclic hint = %d, want default", got)
	}
}

// TestChaseWithinBudgetHint: the actual chase length of the chain
// family stays within its hint.
func TestChaseWithinBudgetHint(t *testing.T) {
	var chain []dep.TGD
	names := []string{"T0", "T1", "T2", "T3"}
	for i := 0; i+1 < len(names); i++ {
		chain = append(chain, dep.TGD{
			Label: "c",
			Body:  []dep.Atom{dep.NewAtom(names[i], dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom(names[i+1], dep.Var("y"), dep.Var("z"))},
		})
	}
	deps := make([]dep.Dependency, len(chain))
	for i, d := range chain {
		deps[i] = d
	}
	inst := rel.NewInstance()
	for k := 0; k < 30; k++ {
		inst.Add("T0", rel.Const(string(rune('a'+k%26))+string(rune('0'+k/26))), rel.Const("b"))
	}
	hint := BudgetHint(chain, inst.NumFacts())
	res, err := Run(inst, deps, Options{MaxSteps: hint})
	if err != nil {
		t.Fatalf("chase exceeded its budget hint %d: %v", hint, err)
	}
	if res.Steps > hint {
		t.Errorf("steps %d > hint %d", res.Steps, hint)
	}
}
