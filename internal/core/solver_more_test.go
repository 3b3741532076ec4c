package core_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/graph"
	"repro/internal/hom"
	"repro/internal/reductions"
	"repro/internal/rel"
	"repro/internal/workload"
)

// TestForEachImageSolutionStops: returning false from the callback ends
// the enumeration immediately.
func TestForEachImageSolutionStops(t *testing.T) {
	s := &core.Setting{
		Name:   "many",
		Source: rel.SchemaOf("A", 1, "B", 1),
		Target: rel.SchemaOf("T", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("u"))},
		}},
		TS: []dep.TGD{{
			Label: "ts",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
		}},
	}
	i := rel.NewInstance()
	i.Add("A", rel.Const("a"))
	i.Add("B", rel.Const("c1"))
	i.Add("B", rel.Const("c2")) // enlarge the domain: many image solutions
	calls := 0
	stats, err := core.ForEachImageSolution(s, i, rel.NewInstance(), core.SolveOptions{}, func(*rel.Instance) bool {
		calls++
		return calls < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("callback ran %d times after requesting stop at 2", calls)
	}
	if stats.Solutions != 2 {
		t.Errorf("stats.Solutions = %d", stats.Solutions)
	}
}

// TestSolveStatsShape: the reported search dimensions match the
// instance.
func TestSolveStatsShape(t *testing.T) {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(51))
	i, j := workload.LAVInstance(12, true, rng)
	_, _, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NullCount != 12 {
		t.Errorf("NullCount = %d, want 12 (one per person)", stats.NullCount)
	}
	// Domain: adom(I) constants plus keep-as-fresh.
	wantDomain := len(i.ActiveDomain()) + 1
	if stats.DomainSize != wantDomain {
		t.Errorf("DomainSize = %d, want %d", stats.DomainSize, wantDomain)
	}
	if stats.Nodes <= 0 || stats.Solutions != 1 {
		t.Errorf("Nodes=%d Solutions=%d", stats.Nodes, stats.Solutions)
	}
}

// TestCliqueSearchTreePinned pins the generic search on the Theorem 3
// reduction of K4 with k=4. The node counts depend on which nulls each
// violated trigger blames, so they change whenever the responsibility
// sets (and hence the backjumps) change; the values were recorded
// before responsibilities were keyed on rel.FactKey.
func TestCliqueSearchTreePinned(t *testing.T) {
	s := reductions.CliqueSetting()
	i, j := reductions.CliqueInstance(graph.Complete(4), 4)
	ok, _, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
	if err != nil || !ok {
		t.Fatalf("ExistsSolutionGeneric = %v, %v; want a solution", ok, err)
	}
	if stats.Nodes != 1371 || stats.Solutions != 1 {
		t.Errorf("ExistsSolutionGeneric: Nodes=%d Solutions=%d, want 1371 and 1", stats.Nodes, stats.Solutions)
	}
	stats, err = core.ForEachImageSolution(s, i, j, core.SolveOptions{}, func(*rel.Instance) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 44194 || stats.Solutions != 24 {
		t.Errorf("ForEachImageSolution: Nodes=%d Solutions=%d, want 44194 and 24", stats.Nodes, stats.Solutions)
	}
}

// TestGenericSolverGroundJcanShortcut: when J_can has no nulls the
// solver decides by direct constraint checks without search.
func TestGenericSolverGroundJcanShortcut(t *testing.T) {
	s := &core.Setting{
		Name:   "ground",
		Source: rel.SchemaOf("B", 2),
		Target: rel.SchemaOf("T", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		}},
		TS: []dep.TGD{{
			Label: "ts",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("B", dep.Var("y"), dep.Var("x"))},
		}},
	}
	// Symmetric pair: solvable.
	i := rel.NewInstance()
	i.Add("B", rel.Const("a"), rel.Const("b"))
	i.Add("B", rel.Const("b"), rel.Const("a"))
	got, _, stats, err := core.ExistsSolutionGeneric(s, i, rel.NewInstance(), core.SolveOptions{})
	if err != nil || !got {
		t.Fatalf("got=%v err=%v", got, err)
	}
	if stats.NullCount != 0 {
		t.Errorf("NullCount = %d, want 0", stats.NullCount)
	}
	// Asymmetric fact: the ground check fails before any search.
	i2 := rel.NewInstance()
	i2.Add("B", rel.Const("a"), rel.Const("b"))
	got, _, stats, err = core.ExistsSolutionGeneric(s, i2, rel.NewInstance(), core.SolveOptions{})
	if err != nil || got {
		t.Fatalf("got=%v err=%v", got, err)
	}
	if stats.Nodes != 0 {
		t.Errorf("Nodes = %d, want 0 (pruned at grounding)", stats.Nodes)
	}
}

// TestPreChaseFailureMeansNoSolution: a target egd failing already on
// J_can proves unsolvability without search.
func TestPreChaseFailureMeansNoSolution(t *testing.T) {
	s := &core.Setting{
		Name:   "prechase-fail",
		Source: rel.SchemaOf("B", 2),
		Target: rel.SchemaOf("T", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		}},
		T: []dep.Dependency{dep.EGD{
			Label: "key",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y")), dep.NewAtom("T", dep.Var("x"), dep.Var("z"))},
			Left:  "y", Right: "z",
		}},
	}
	i := rel.NewInstance()
	i.Add("B", rel.Const("a"), rel.Const("b"))
	i.Add("B", rel.Const("a"), rel.Const("c"))
	got, _, stats, err := core.ExistsSolutionGeneric(s, i, rel.NewInstance(), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("key-violating instance reported solvable")
	}
	if stats.Nodes != 0 {
		t.Errorf("Nodes = %d, want 0 (failing pre-chase)", stats.Nodes)
	}
}

// TestUnsupportedTargetTGDsRejected: non-weakly-acyclic Σt is refused
// up front rather than looping.
func TestUnsupportedTargetTGDsRejected(t *testing.T) {
	s := &core.Setting{
		Name:   "cyclic-t",
		Source: rel.SchemaOf("B", 2),
		Target: rel.SchemaOf("T", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		}},
		T: []dep.Dependency{dep.TGD{
			Label: "t-cyc",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("y"), dep.Var("z"))},
		}},
	}
	_, _, _, err := core.ExistsSolutionGeneric(s, rel.NewInstance(), rel.NewInstance(), core.SolveOptions{})
	if err == nil {
		t.Fatal("non-weakly-acyclic Σt accepted")
	}
}

// TestWeaklyAcyclicExistentialTargetTGDs: weakly acyclic Σt with
// existential tgds is handled (soundly) — the chase invents the
// witnesses.
func TestWeaklyAcyclicExistentialTargetTGDs(t *testing.T) {
	s := &core.Setting{
		Name:   "wa-exist-t",
		Source: rel.SchemaOf("B", 2),
		Target: rel.SchemaOf("T", 2, "U", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		}},
		T: []dep.Dependency{dep.TGD{
			Label: "t-ex",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("U", dep.Var("y"), dep.Var("w"))},
		}},
	}
	i := rel.NewInstance()
	i.Add("B", rel.Const("a"), rel.Const("b"))
	got, witness, _, err := core.ExistsSolutionGeneric(s, i, rel.NewInstance(), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("solvable setting reported unsolvable")
	}
	if !s.IsSolution(i, rel.NewInstance(), witness) {
		t.Errorf("witness invalid:\n%s", witness)
	}
	if witness.Relation("U") == nil {
		t.Error("Σt witness missing from solution")
	}
}

// wholeInstanceMaps reports whether k maps into i by one homomorphism
// search of all of k, compiled as a single block holding every fact and
// every null.
func wholeInstanceMaps(k, i *rel.Instance) bool {
	whole := hom.Block{Facts: k.Facts()}
	for n := range k.Nulls() {
		whole.Nulls = append(whole.Nulls, n)
	}
	sort.Slice(whole.Nulls, func(a, b int) bool { return whole.Nulls[a].Less(whole.Nulls[b]) })
	return whole.Compile().Exists(i, make([]rel.Value, len(whole.Nulls)), hom.Options{})
}

// TestInstanceHomAgreesWithBlockwise (Proposition 1) on random C_tract
// instances: the blockwise verdict equals one homomorphism search of
// the whole I_can into I.
func TestInstanceHomAgreesWithBlockwise(t *testing.T) {
	s := workload.FullSTSetting()
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 10; trial++ {
		i, j := workload.FullSTInstance(10+rng.Intn(10), rng.Intn(2) == 0, rng)
		block, trace, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		whole := wholeInstanceMaps(trace.ICan, i)
		if block != whole {
			t.Errorf("trial %d: blockwise=%v whole=%v", trial, block, whole)
		}
	}
}
