package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/oracle"
	"repro/internal/par"
	"repro/internal/rel"
)

// example1Setting is Example 1 of the paper:
//
//	Σst: E(x,z), E(z,y) -> H(x,y)
//	Σts: H(x,y) -> E(x,y)
//	Σt:  ∅
func example1Setting() *core.Setting {
	return &core.Setting{
		Name:   "example1",
		Source: rel.SchemaOf("E", 2),
		Target: rel.SchemaOf("H", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("z")), dep.NewAtom("E", dep.Var("z"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))},
		}},
		TS: []dep.TGD{{
			Label: "ts",
			Body:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))},
		}},
	}
}

func edges(pairs ...[2]string) *rel.Instance {
	inst := rel.NewInstance()
	for _, p := range pairs {
		inst.Add("E", rel.Const(p[0]), rel.Const(p[1]))
	}
	return inst
}

func TestSettingValidate(t *testing.T) {
	s := example1Setting()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid setting rejected: %v", err)
	}
	bad := example1Setting()
	bad.Target = rel.SchemaOf("E", 2) // overlaps source
	if err := bad.Validate(); err == nil {
		t.Error("overlapping schemas accepted")
	}
	bad2 := example1Setting()
	bad2.ST[0].Body = []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))} // body over target
	if err := bad2.Validate(); err == nil {
		t.Error("st tgd with target body accepted")
	}
	bad3 := example1Setting()
	bad3.T = []dep.Dependency{dep.TGD{
		Label: "t",
		Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))}, // source relation in Σt
		Head:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))},
	}}
	if err := bad3.Validate(); err == nil {
		t.Error("Σt over source relation accepted")
	}
}

// TestExample1 reproduces all three instance families of Example 1.
func TestExample1(t *testing.T) {
	s := example1Setting()
	j := rel.NewInstance()

	cases := []struct {
		name string
		i    *rel.Instance
		want bool
	}{
		{"path-no-solution", edges([2]string{"a", "b"}, [2]string{"b", "c"}), false},
		{"self-loop-unique-solution", edges([2]string{"a", "a"}), true},
		{"triangle-closed", edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, witness, _, err := core.ExistsSolutionGeneric(s, tc.i, j, core.SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("generic SOL = %v, want %v", got, tc.want)
			}
			if got && !s.IsSolution(tc.i, j, witness) {
				t.Errorf("witness is not a solution:\n%s\nviolations: %v",
					witness, s.SolutionViolations(tc.i, j, witness))
			}
			// The setting is in C_tract (LAV Σts): the Figure 3
			// algorithm must agree.
			tr, _, err := core.ExistsSolutionTractable(s, tc.i, j, core.TractableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if tr != tc.want {
				t.Errorf("tractable SOL = %v, want %v", tr, tc.want)
			}
		})
	}
}

func TestExample1KnownSolutions(t *testing.T) {
	s := example1Setting()
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	j := rel.NewInstance()

	sol1 := rel.NewInstance()
	sol1.Add("H", rel.Const("a"), rel.Const("c"))
	if !s.IsSolution(i, j, sol1) {
		t.Errorf("{H(a,c)} must be a solution: %v", s.SolutionViolations(i, j, sol1))
	}
	sol2 := sol1.Clone()
	sol2.Add("H", rel.Const("a"), rel.Const("b"))
	sol2.Add("H", rel.Const("b"), rel.Const("c"))
	if !s.IsSolution(i, j, sol2) {
		t.Errorf("{H(a,b),H(b,c),H(a,c)} must be a solution: %v", s.SolutionViolations(i, j, sol2))
	}
	notSol := rel.NewInstance()
	notSol.Add("H", rel.Const("c"), rel.Const("a"))
	if s.IsSolution(i, j, notSol) {
		t.Error("{H(c,a)} must not be a solution (violates Σts and Σst)")
	}
}

func TestExample1SelfLoopUniqueSolution(t *testing.T) {
	s := example1Setting()
	i := edges([2]string{"a", "a"})
	j := rel.NewInstance()
	want := rel.NewInstance()
	want.Add("H", rel.Const("a"), rel.Const("a"))

	count := 0
	var got *rel.Instance
	_, err := core.ForEachImageSolution(s, i, j, core.SolveOptions{}, func(sol *rel.Instance) bool {
		count++
		got = sol
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("image solutions = %d, want exactly 1", count)
	}
	if got == nil || !got.Equal(want) {
		t.Errorf("solution = %v, want {H(a,a)}", got)
	}
}

func TestNonEmptyTargetInstance(t *testing.T) {
	// J already holds H(a,c); target must keep it, and Σts requires
	// E(a,c) in the source.
	s := example1Setting()
	j := rel.NewInstance()
	j.Add("H", rel.Const("a"), rel.Const("c"))

	// Source without E(a,c): J itself violates Σts and no augmentation
	// can fix it (facts are never removed).
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"})
	got, _, _, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("solution should not exist: J's fact violates Σts")
	}

	// Source with E(a,c): J' = J works.
	i2 := edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	got, witness, _, err := core.ExistsSolutionGeneric(s, i2, j, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("solution should exist")
	}
	if !witness.ContainsAll(j) {
		t.Error("witness does not contain J")
	}
}

func TestFindSolutionTractable(t *testing.T) {
	s := example1Setting()
	j := rel.NewInstance()
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	sol, trace, err := core.FindSolutionTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil {
		t.Fatal("no solution constructed")
	}
	if !s.IsSolution(i, j, sol) {
		t.Errorf("J_img is not a solution: %v", s.SolutionViolations(i, j, sol))
	}
	if trace.JCan == nil || trace.ICan == nil {
		t.Error("trace not populated")
	}

	// Unsolvable case returns nil without error.
	sol, _, err = core.FindSolutionTractable(s, edges([2]string{"a", "b"}, [2]string{"b", "c"}), j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol != nil {
		t.Error("solution constructed for unsolvable instance")
	}
}

// TestFindSolutionTractableMapsNulls: the witness applies each block's
// homomorphism from I_can into I to J_can. Here I_can is E(a,N1),
// E(c,N2): the nulls map to b and d, one block each; without E(c,d) the
// second block is the first to fail.
func TestFindSolutionTractableMapsNulls(t *testing.T) {
	s := &core.Setting{
		Name:   "nulls",
		Source: rel.SchemaOf("A", 1, "E", 2),
		Target: rel.SchemaOf("H", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("z"))},
		}},
		TS: []dep.TGD{{
			Label: "ts",
			Body:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))},
		}},
	}
	i := edges([2]string{"a", "b"}, [2]string{"c", "d"})
	i.Add("A", rel.Const("a"))
	i.Add("A", rel.Const("c"))
	j := rel.NewInstance()
	sol, trace, err := core.FindSolutionTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := rel.NewInstance()
	want.Add("H", rel.Const("a"), rel.Const("b"))
	want.Add("H", rel.Const("c"), rel.Const("d"))
	if sol == nil || !sol.Equal(want) || trace.FailedBlock != -1 {
		t.Fatalf("witness = %v, failed block %d; want %v, -1", sol, trace.FailedBlock, want)
	}
	i = edges([2]string{"a", "b"})
	i.Add("A", rel.Const("a"))
	i.Add("A", rel.Const("c"))
	sol, trace, err = core.FindSolutionTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol != nil || trace.FailedBlock != 1 || trace.BlockList[1].Facts[0].Args[0] != rel.Const("c") {
		t.Fatalf("witness = %v, failed block %d; want none, the block of E(c, _)", sol, trace.FailedBlock)
	}
}

func TestTractableRefusesTargetConstraints(t *testing.T) {
	s := example1Setting()
	s.T = []dep.Dependency{dep.EGD{
		Label: "e",
		Body:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y")), dep.NewAtom("H", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}}
	if _, _, err := core.ExistsSolutionTractable(s, rel.NewInstance(), rel.NewInstance(), core.TractableOptions{}); err == nil {
		t.Error("tractable solver accepted target constraints")
	}
}

func TestTractableRefusesCondition1Violation(t *testing.T) {
	s := &core.Setting{
		Name:   "cond1-violation",
		Source: rel.SchemaOf("A", 2, "U", 2),
		Target: rel.SchemaOf("T1", 2, "T2", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"), dep.Var("v"))},
			Head:  []dep.Atom{dep.NewAtom("T1", dep.Var("x"), dep.Var("y")), dep.NewAtom("T2", dep.Var("y"), dep.Var("v"))},
		}},
		TS: []dep.TGD{{
			Label: "ts",
			Body:  []dep.Atom{dep.NewAtom("T1", dep.Var("x"), dep.Var("y")), dep.NewAtom("T2", dep.Var("y"), dep.Var("z"))},
			Head:  []dep.Atom{dep.NewAtom("U", dep.Var("x"), dep.Var("z"))},
		}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	_, _, err := core.ExistsSolutionTractable(s, rel.NewInstance(), rel.NewInstance(), core.TractableOptions{})
	if err == nil {
		t.Error("condition 1 violation not rejected")
	}
	// With the escape hatch it runs.
	_, _, err = core.ExistsSolutionTractable(s, rel.NewInstance(), rel.NewInstance(), core.TractableOptions{SkipCondition1Check: true})
	if err != nil {
		t.Errorf("forced run failed: %v", err)
	}
}

func TestGenericSolverBudget(t *testing.T) {
	s := example1Setting()
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"})
	_, _, _, err := core.ExistsSolutionGeneric(s, i, rel.NewInstance(), core.SolveOptions{MaxNodes: 0})
	if err != nil {
		t.Fatalf("unbounded run errored: %v", err)
	}
	// A budget of 0 nodes is "no bound"; 1 node must trip on any search
	// with at least one null... Example 1 has no nulls in J_can, so use
	// a setting with existentials.
	s2 := &core.Setting{
		Name:   "nulls",
		Source: rel.SchemaOf("A", 1, "B", 2),
		Target: rel.SchemaOf("T", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		}},
		TS: []dep.TGD{{
			Label: "ts",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("w"))},
		}},
	}
	i2 := rel.NewInstance()
	for k := 0; k < 5; k++ {
		i2.Add("A", rel.Const(string(rune('a'+k))))
		i2.Add("B", rel.Const(string(rune('a'+k))), rel.Const("z"))
	}
	_, _, _, err = core.ExistsSolutionGeneric(s2, i2, rel.NewInstance(), core.SolveOptions{MaxNodes: 2})
	if !errors.Is(err, core.ErrSearchBudget) {
		t.Errorf("expected search budget error, got %v", err)
	}
}

// TestGenericSolverMatchesExhaustiveSOL: the pruned solver's verdict
// matches the brute-force SOL(P) decider.
func TestGenericSolverMatchesExhaustiveSOL(t *testing.T) {
	s := example1Setting()
	cases := []*rel.Instance{
		edges([2]string{"a", "b"}, [2]string{"b", "c"}),
		edges([2]string{"a", "a"}),
		edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"}),
	}
	for idx, i := range cases {
		fast, _, _, err := core.ExistsSolutionGeneric(s, i, rel.NewInstance(), core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.ExhaustiveSOL(s, i, rel.NewInstance(), oracle.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if fast != want {
			t.Errorf("case %d: pruned=%v exhaustive=%v", idx, fast, want)
		}
	}
}

func TestMultiSettingCombineEquivalence(t *testing.T) {
	// Two source peers feeding one target: peer 1 as in Example 1, peer
	// 2 copies a relation F into H... F -> H directly.
	target := rel.SchemaOf("H", 2)
	p1 := example1Setting()
	p1.Target = target
	p2 := &core.Setting{
		Name:   "peer2",
		Source: rel.SchemaOf("F", 2),
		Target: target,
		ST: []dep.TGD{{
			Label: "st2",
			Body:  []dep.Atom{dep.NewAtom("F", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))},
		}},
	}
	m := &core.MultiSetting{Name: "multi", Peers: []*core.Setting{p1, p2}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	combined, err := m.Combine()
	if err != nil {
		t.Fatal(err)
	}
	if err := combined.Validate(); err != nil {
		t.Fatal(err)
	}

	i1 := edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	i2 := rel.NewInstance()
	i2.Add("F", rel.Const("q"), rel.Const("r"))
	j := rel.NewInstance()

	// A solution of the combined setting must be a multi-solution and
	// vice versa. H(q,r) is forced by peer 2; Σts of peer 1 then needs
	// E(q,r) in peer 1's source — absent, so there is NO solution.
	got, _, _, err := core.ExistsSolutionGeneric(combined, rel.Union(i1, i2), j, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("combined setting should have no solution (H(q,r) violates peer 1's Σts)")
	}

	// Add E(q,r) to peer 1: now solutions exist and multi/combined agree.
	i1.Add("E", rel.Const("q"), rel.Const("r"))
	got, witness, _, err := core.ExistsSolutionGeneric(combined, rel.Union(i1, i2), j, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("combined setting should have a solution")
	}
	ok, err := m.IsSolution([]*rel.Instance{i1, i2}, j, witness)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("combined witness is not a multi-PDE solution")
	}
}

func TestMultiSettingValidation(t *testing.T) {
	p1 := example1Setting()
	p2 := example1Setting() // same source schema: overlap
	m := &core.MultiSetting{Name: "bad", Peers: []*core.Setting{p1, p2}}
	if err := m.Validate(); err == nil {
		t.Error("overlapping peer sources accepted")
	}
	empty := &core.MultiSetting{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("empty multi-setting accepted")
	}
}

func TestSmallSolutionLemma2(t *testing.T) {
	s := example1Setting()
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	j := rel.NewInstance()
	// A deliberately bloated solution.
	big := rel.NewInstance()
	big.Add("H", rel.Const("a"), rel.Const("c"))
	big.Add("H", rel.Const("a"), rel.Const("b"))
	big.Add("H", rel.Const("b"), rel.Const("c"))
	if !s.IsSolution(i, j, big) {
		t.Fatal("setup: big is not a solution")
	}
	small, err := core.SmallSolution(s, i, j, big, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !big.ContainsAll(small) {
		t.Error("small solution not contained in the given solution")
	}
	if !s.IsSolution(i, j, small) {
		t.Errorf("small solution is not a solution: %v", s.SolutionViolations(i, j, small))
	}
	if small.NumFacts() > 1 {
		t.Errorf("expected the 1-fact chase core, got %d facts:\n%s", small.NumFacts(), small)
	}
}

func TestSmallSolutionHonorsContext(t *testing.T) {
	// The solution-aware chase runs under the options' execution config,
	// so a pre-canceled context stops it instead of being dropped.
	s := example1Setting()
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	big := rel.NewInstance()
	big.Add("H", rel.Const("a"), rel.Const("c"))
	big.Add("H", rel.Const("a"), rel.Const("b"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.SmallSolution(s, i, rel.NewInstance(), big, core.SolveOptions{Config: par.Config{Ctx: ctx}})
	if !errors.Is(err, par.ErrCanceled) {
		t.Fatalf("SmallSolution under a canceled context: err = %v, want par.ErrCanceled", err)
	}
}

func TestSmallSolutionRejectsNonSolution(t *testing.T) {
	s := example1Setting()
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"})
	notSol := rel.NewInstance() // empty: violates Σst
	if _, err := core.SmallSolution(s, i, rel.NewInstance(), notSol, core.SolveOptions{}); err == nil {
		t.Error("SmallSolution accepted a non-solution")
	}
}

func TestMinimizeSolution(t *testing.T) {
	s := example1Setting()
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	j := rel.NewInstance()
	big := rel.NewInstance()
	big.Add("H", rel.Const("a"), rel.Const("c"))
	big.Add("H", rel.Const("a"), rel.Const("b"))
	big.Add("H", rel.Const("b"), rel.Const("c"))
	minimal := core.MinimizeSolution(s, i, j, big, core.SolveOptions{})
	if !s.IsSolution(i, j, minimal) {
		t.Fatal("minimized instance is not a solution")
	}
	if minimal.NumFacts() != 1 {
		t.Errorf("minimal solution has %d facts, want 1:\n%s", minimal.NumFacts(), minimal)
	}
	// J facts are never removed.
	j2 := rel.NewInstance()
	j2.Add("H", rel.Const("a"), rel.Const("b"))
	big2 := big.Clone()
	minimal2 := core.MinimizeSolution(s, i, j2, big2, core.SolveOptions{})
	if !minimal2.Contains(rel.Fact{Rel: "H", Args: rel.Tuple{rel.Const("a"), rel.Const("b")}}) {
		t.Error("minimization removed a J fact")
	}
}

func TestClassifyIncludesTargetConstraintRule(t *testing.T) {
	s := example1Setting()
	rep := s.Classify()
	if !rep.InCtract {
		t.Errorf("Example 1 setting should be in C_tract: %s", rep.Summary())
	}
	s.T = []dep.Dependency{dep.EGD{
		Label: "e",
		Body:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y")), dep.NewAtom("H", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}}
	rep = s.Classify()
	if rep.InCtract {
		t.Error("setting with Σt must not be in C_tract")
	}
}

func TestDataExchangeContrast(t *testing.T) {
	// With Σts = ∅ and Σt = ∅ (pure data exchange), a solution always
	// exists — the sharp contrast the paper draws in Section 3.
	s := example1Setting()
	s.TS = nil
	for _, i := range []*rel.Instance{
		edges([2]string{"a", "b"}, [2]string{"b", "c"}),
		edges([2]string{"a", "a"}),
		edges(),
	} {
		got, _, _, err := core.ExistsSolutionGeneric(s, i, rel.NewInstance(), core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Errorf("data exchange setting must always have a solution")
		}
	}
}

func TestMinimizeSolutionCanceledContextReturnsEarly(t *testing.T) {
	// A pre-canceled context stops the greedy fixpoint before any
	// removal round: the result is the (cloned) input, and callers that
	// set Ctx must check Ctx.Err and discard it.
	s := example1Setting()
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"})
	j := rel.NewInstance()
	big := rel.NewInstance()
	big.Add("H", rel.Const("a"), rel.Const("c"))
	big.Add("H", rel.Const("a"), rel.Const("b"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := core.MinimizeSolution(s, i, j, big, core.SolveOptions{Config: par.Config{Ctx: ctx}})
	if got.NumFacts() != big.NumFacts() {
		t.Errorf("canceled MinimizeSolution still removed facts: %d -> %d", big.NumFacts(), got.NumFacts())
	}
	if big.NumFacts() != 2 {
		t.Errorf("input mutated: %d facts", big.NumFacts())
	}
}
