package uni_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
	"repro/internal/uni"
)

func TestCoreCollapsesDominatedNull(t *testing.T) {
	// {E(a,N1), E(a,b)}: N1 -> b retracts the instance to {E(a,b)}.
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Null(1))
	k.Add("E", rel.Const("a"), rel.Const("b"))
	c := uni.Core(k, hom.Options{})
	if c.NumFacts() != 1 {
		t.Fatalf("core has %d facts:\n%s", c.NumFacts(), c)
	}
	if !c.Contains(rel.Fact{Rel: "E", Args: rel.Tuple{rel.Const("a"), rel.Const("b")}}) {
		t.Errorf("core lost the ground fact:\n%s", c)
	}
}

func TestCoreKeepsEssentialNulls(t *testing.T) {
	// {E(a,N1), E(N1,b)}: no shortcut exists, the instance is its own
	// core.
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Null(1))
	k.Add("E", rel.Null(1), rel.Const("b"))
	c := uni.Core(k, hom.Options{})
	if c.NumFacts() != 2 {
		t.Fatalf("core has %d facts, want 2:\n%s", c.NumFacts(), c)
	}
	if !uni.IsCore(k, hom.Options{}) {
		t.Error("IsCore = false for a core instance")
	}
}

func TestCoreKeepsConstantPrintedLikeNull(t *testing.T) {
	// {R('_N1'), R(N1), S(N1)}: the constant prints as the null does,
	// but N1 cannot map onto it (S('_N1') is absent), so the instance is
	// its own core and the constant fact must survive.
	k := rel.NewInstance()
	k.Add("R", rel.Const("_N1"))
	k.Add("R", rel.Null(1))
	k.Add("S", rel.Null(1))
	c := uni.Core(k, hom.Options{})
	if c.NumFacts() != 3 {
		t.Fatalf("core has %d facts, want 3:\n%s", c.NumFacts(), c)
	}
	if !c.Contains(rel.Fact{Rel: "R", Args: rel.Tuple{rel.Const("_N1")}}) {
		t.Errorf("core lost the constant fact R('_N1'):\n%s", c)
	}
}

func TestCoreCollapsesParallelNullChains(t *testing.T) {
	// Two parallel null chains from a to b: one suffices.
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Null(1))
	k.Add("E", rel.Null(1), rel.Const("b"))
	k.Add("E", rel.Const("a"), rel.Null(2))
	k.Add("E", rel.Null(2), rel.Const("b"))
	c := uni.Core(k, hom.Options{})
	if c.NumFacts() != 2 {
		t.Fatalf("core has %d facts, want 2:\n%s", c.NumFacts(), c)
	}
}

func TestCoreGroundInstanceIsItself(t *testing.T) {
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Const("b"))
	k.Add("E", rel.Const("b"), rel.Const("c"))
	c := uni.Core(k, hom.Options{})
	if !c.Equal(k) {
		t.Error("ground instance must be its own core")
	}
}

func TestCoreIsHomEquivalentAndIdempotent(t *testing.T) {
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Null(1))
	k.Add("E", rel.Const("a"), rel.Null(2))
	k.Add("E", rel.Null(2), rel.Null(3))
	k.Add("E", rel.Const("a"), rel.Const("b"))
	k.Add("E", rel.Const("b"), rel.Const("c"))
	c := uni.Core(k, hom.Options{})
	if !uni.HomEquivalent(k, c, hom.Options{}) {
		t.Error("core not hom-equivalent to the instance")
	}
	if !uni.Core(c, hom.Options{}).Equal(c) {
		t.Error("core not idempotent")
	}
	if !uni.IsCore(c, hom.Options{}) {
		t.Error("IsCore(core) = false")
	}
	// N1 -> b, and the chain E(a,N2),E(N2,N3) -> E(a,b),E(b,c): all
	// nulls collapse.
	if c.HasNulls() {
		t.Errorf("expected a null-free core:\n%s", c)
	}
	if c.NumFacts() != 2 {
		t.Errorf("core = %d facts, want 2:\n%s", c.NumFacts(), c)
	}
}

// Property-style check: the core never grows and is always a retract
// (subset + hom-equivalent) across random instances.
func TestCoreRetractProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		k := rel.NewInstance()
		vals := []rel.Value{rel.Const("a"), rel.Const("b"), rel.Null(1), rel.Null(2), rel.Null(3)}
		for f := 0; f < 6; f++ {
			k.Add("E", vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
		}
		c := uni.Core(k, hom.Options{})
		if c.NumFacts() > k.NumFacts() {
			t.Fatalf("core grew: %d -> %d", k.NumFacts(), c.NumFacts())
		}
		if !k.ContainsAll(c) {
			t.Errorf("core is not a subinstance:\nK:\n%s\ncore:\n%s", k, c)
		}
		if !uni.HomEquivalent(k, c, hom.Options{}) {
			t.Errorf("core not hom-equivalent:\nK:\n%s\ncore:\n%s", k, c)
		}
		if !uni.IsCore(c, hom.Options{}) {
			t.Errorf("Core(Core(K)) != Core(K):\n%s", c)
		}
	}
}

func dataExchangeSetting() *core.Setting {
	// Σst with existentials, Σts empty, one target tgd: the
	// data-exchange fragment.
	return &core.Setting{
		Name:   "de",
		Source: rel.SchemaOf("Src", 2),
		Target: rel.SchemaOf("T", 2, "U", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("Src", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("u"))},
		}},
		T: []dep.Dependency{dep.TGD{
			Label: "t",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("u"))},
			Head:  []dep.Atom{dep.NewAtom("U", dep.Var("x"), dep.Var("x"))},
		}},
	}
}

func TestCanonicalSolutionBasics(t *testing.T) {
	s := dataExchangeSetting()
	i := rel.NewInstance()
	i.Add("Src", rel.Const("a"), rel.Const("b"))
	res, err := uni.CanonicalSolution(s, i, rel.NewInstance(), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("chase failed unexpectedly")
	}
	if !s.IsSolution(i, rel.NewInstance(), res.Solution) {
		t.Errorf("canonical instance is not a solution:\n%s", res.Solution)
	}
	if res.Solution.Relation("U") == nil {
		t.Error("target tgd not chased")
	}
}

func TestCanonicalSolutionFailure(t *testing.T) {
	s := &core.Setting{
		Name:   "fail",
		Source: rel.SchemaOf("Src", 2),
		Target: rel.SchemaOf("T", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("Src", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		}},
		T: []dep.Dependency{dep.EGD{
			Label: "key",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y")), dep.NewAtom("T", dep.Var("x"), dep.Var("z"))},
			Left:  "y", Right: "z",
		}},
	}
	i := rel.NewInstance()
	i.Add("Src", rel.Const("a"), rel.Const("b"))
	i.Add("Src", rel.Const("a"), rel.Const("c"))
	res, err := uni.CanonicalSolution(s, i, rel.NewInstance(), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Error("expected failing chase (key violation)")
	}
}

// TestCertainViaUniversalAgainstEnumeration cross-validates the
// polynomial universal-solution evaluation against the enumeration
// evaluator on data-exchange settings.
func TestCertainViaUniversalAgainstEnumeration(t *testing.T) {
	s := dataExchangeSetting()
	q := certain.UCQ{{
		Name: "q",
		Head: []string{"x"},
		Body: []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("u"))},
	}}
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		i := rel.NewInstance()
		for f := 0; f < 1+rng.Intn(4); f++ {
			i.Add("Src", rel.Const(string(rune('a'+rng.Intn(3)))), rel.Const(string(rune('a'+rng.Intn(3)))))
		}
		fast, exists, err := uni.CertainAnswers(s, i, rel.NewInstance(), func(inst *rel.Instance) []rel.Tuple {
			return q.Eval(inst, hom.Options{})
		}, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !exists {
			t.Fatal("data-exchange setting must have solutions")
		}
		slow, err := certain.Answers(s, i, rel.NewInstance(), q, certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(slow.Answers) {
			t.Fatalf("trial %d: universal=%v enumeration=%v", trial, fast, slow.Answers)
		}
		for idx := range fast {
			if fast[idx].String() != slow.Answers[idx].String() {
				t.Fatalf("trial %d: universal=%v enumeration=%v", trial, fast, slow.Answers)
			}
		}
	}
}

func TestCertainViaUniversalRejectsPDESettings(t *testing.T) {
	s := dataExchangeSetting()
	s.TS = []dep.TGD{{
		Label: "ts",
		Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		Head:  []dep.Atom{dep.NewAtom("Src", dep.Var("x"), dep.Var("y"))},
	}}
	_, _, err := uni.CertainAnswers(s, rel.NewInstance(), rel.NewInstance(), func(*rel.Instance) []rel.Tuple { return nil }, chase.Options{})
	if err == nil {
		t.Error("Σts setting accepted by the data-exchange evaluator")
	}
}

// TestCoreOfCanonicalIsUniversalSolution: the core of the canonical
// universal solution is still a solution and hom-equivalent to it (the
// "getting to the core" headline).
func TestCoreOfCanonicalIsUniversalSolution(t *testing.T) {
	s := dataExchangeSetting()
	i := rel.NewInstance()
	i.Add("Src", rel.Const("a"), rel.Const("b"))
	i.Add("Src", rel.Const("a"), rel.Const("c")) // two triggers, same x
	res, err := uni.CanonicalSolution(s, i, rel.NewInstance(), chase.Options{})
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	c := uni.Core(res.Solution, hom.Options{})
	if c.NumFacts() > res.Solution.NumFacts() {
		t.Fatal("core grew")
	}
	if !s.IsSolution(i, rel.NewInstance(), c) {
		t.Errorf("core is not a solution:\n%s", c)
	}
	if !uni.HomEquivalent(c, res.Solution, hom.Options{}) {
		t.Error("core not hom-equivalent to the canonical solution")
	}
	// The canonical solution has two T-facts with distinct nulls for the
	// same x='a'; the core keeps only one.
	if c.Relation("T").Len() != 1 {
		t.Errorf("core T relation:\n%s", c)
	}
}

// TestCoreAcrossRelations: a block whose image lands in a different
// part of the instance, spanning multiple relations.
func TestCoreAcrossRelations(t *testing.T) {
	k := rel.NewInstance()
	// Redundant pattern: L(a,N1), R(N1,b) has the ground witness
	// L(a,c), R(c,b).
	k.Add("L", rel.Const("a"), rel.Null(1))
	k.Add("R", rel.Null(1), rel.Const("b"))
	k.Add("L", rel.Const("a"), rel.Const("c"))
	k.Add("R", rel.Const("c"), rel.Const("b"))
	c := uni.Core(k, hom.Options{})
	if c.NumFacts() != 2 || c.HasNulls() {
		t.Errorf("core = %d facts (nulls=%v):\n%s", c.NumFacts(), c.HasNulls(), c)
	}
}

// TestCoreChainedBlocks: shrinking one block can expose further
// shrinking (the loop must iterate to a fixpoint).
func TestCoreChainedBlocks(t *testing.T) {
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Null(1))
	k.Add("E", rel.Const("a"), rel.Null(2))
	k.Add("E", rel.Null(2), rel.Null(3))
	k.Add("E", rel.Const("a"), rel.Const("x"))
	k.Add("E", rel.Const("x"), rel.Const("y"))
	c := uni.Core(k, hom.Options{})
	if !uni.IsCore(c, hom.Options{}) {
		t.Fatal("fixpoint not reached")
	}
	if c.NumFacts() != 2 {
		t.Errorf("core = %d facts, want the 2 ground facts:\n%s", c.NumFacts(), c)
	}
}

func TestCoreCanceledContextReturnsEarly(t *testing.T) {
	// A pre-canceled context must stop the shrink fixpoint before the
	// first round: Core returns the (cloned) input untouched, and the
	// caller contract is to check Ctx.Err and discard it.
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Null(1))
	k.Add("E", rel.Const("a"), rel.Const("b"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := uni.Core(k, hom.Options{Ctx: ctx})
	if ctx.Err() == nil {
		t.Fatal("context should be canceled")
	}
	if c.NumFacts() != k.NumFacts() {
		t.Errorf("canceled Core still shrank the instance: %d -> %d facts", k.NumFacts(), c.NumFacts())
	}
	// The input itself must not have been mutated.
	if k.NumFacts() != 2 {
		t.Errorf("input mutated: %d facts", k.NumFacts())
	}
}
