package dep

import (
	"strings"
	"testing"
)

// selfLoopTGD is the classic non-weakly-acyclic tgd
// H(x,y) -> exists z: H(y,z): the special edge H.1 →̂ H.1 closes a
// cycle by itself.
func selfLoopTGD() TGD {
	return TGD{
		Label: "t1",
		Body:  []Atom{NewAtom("H", Var("x"), Var("y"))},
		Head:  []Atom{NewAtom("H", Var("y"), Var("z"))},
	}
}

// twoStepCycle is a cycle that needs an ordinary edge to close:
// A(x,y) -> exists z: B(y,z) gives the ordinary edge A.1 → B.0 (via y)
// and the special edge A.1 →̂ B.1 (via z); B(u,v) -> A(u,v) gives the
// ordinary edges B.0 → A.0 and B.1 → A.1. The special edge A.1 →̂ B.1
// closes through B.1 → A.1.
func twoStepCycle() []TGD {
	return []TGD{
		{
			Label: "t-ab",
			Body:  []Atom{NewAtom("A", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("B", Var("y"), Var("z"))},
		},
		{
			Label: "t-ba",
			Body:  []Atom{NewAtom("B", Var("u"), Var("v"))},
			Head:  []Atom{NewAtom("A", Var("u"), Var("v"))},
		},
	}
}

// verifyCycle checks that the reported cycle is a real cycle in the
// graph: consecutive, closed, every edge present with the reported
// kind, and at least one special edge.
func verifyCycle(t *testing.T, g *DependencyGraph, cycle []CycleEdge) {
	t.Helper()
	if len(cycle) == 0 {
		t.Fatal("empty cycle")
	}
	hasSpecial := false
	for i, e := range cycle {
		next := cycle[(i+1)%len(cycle)]
		if e.To != next.From {
			t.Errorf("edge %d ends at %v but edge %d starts at %v", i, e.To, (i+1)%len(cycle), next.From)
		}
		if e.Special {
			hasSpecial = true
			if !g.special[e.From][e.To] {
				t.Errorf("reported special edge %v → %v not in graph", e.From, e.To)
			}
		} else if !g.ordinary[e.From][e.To] {
			t.Errorf("reported ordinary edge %v → %v not in graph", e.From, e.To)
		}
		if len(e.TGDs) == 0 {
			t.Errorf("edge %v has no tgd provenance", e)
		}
	}
	if !hasSpecial {
		t.Error("cycle traverses no special edge")
	}
}

func TestFindSpecialCycleSelfLoop(t *testing.T) {
	tgds := []TGD{selfLoopTGD()}
	if WeaklyAcyclic(tgds) {
		t.Fatal("self-loop tgd reported weakly acyclic")
	}
	cycle, acyclic := WeaklyAcyclicWitness(tgds)
	if acyclic {
		t.Fatal("witness variant disagrees with WeaklyAcyclic")
	}
	verifyCycle(t, BuildDependencyGraph(tgds), cycle)
	if len(cycle) != 1 || !cycle[0].Special || cycle[0].From != (Position{"H", 1}) {
		t.Errorf("cycle = %v, want the special self-loop at H.1", cycle)
	}
	if got := FormatCycle(cycle); got != "H.1 →̂ H.1" {
		t.Errorf("FormatCycle = %q", got)
	}
	if got := cycle[0].TGDs; len(got) != 1 || got[0] != "t1" {
		t.Errorf("provenance = %v, want [t1]", got)
	}
}

func TestFindSpecialCycleMultiEdge(t *testing.T) {
	tgds := twoStepCycle()
	if WeaklyAcyclic(tgds) {
		t.Fatal("two-step cyclic set reported weakly acyclic")
	}
	cycle, acyclic := WeaklyAcyclicWitness(tgds)
	if acyclic {
		t.Fatal("no witness cycle found")
	}
	g := BuildDependencyGraph(tgds)
	verifyCycle(t, g, cycle)
	if !cycle[0].Special {
		t.Errorf("cycle does not start with the special edge: %v", cycle)
	}
	// Determinism: two runs yield byte-identical renderings.
	again, _ := WeaklyAcyclicWitness(tgds)
	if FormatCycle(cycle) != FormatCycle(again) {
		t.Errorf("witness not deterministic: %q vs %q", FormatCycle(cycle), FormatCycle(again))
	}
}

func TestWeaklyAcyclicWitnessOnAcyclicSet(t *testing.T) {
	full := TGD{
		Label: "full",
		Body:  []Atom{NewAtom("H", Var("x"), Var("y"))},
		Head:  []Atom{NewAtom("G", Var("y"), Var("x"))},
	}
	cycle, acyclic := WeaklyAcyclicWitness([]TGD{full})
	if !acyclic || cycle != nil {
		t.Errorf("full tgd: cycle=%v acyclic=%v, want nil/true", cycle, acyclic)
	}
}

func TestCtractWitnessesCliqueSetting(t *testing.T) {
	rep := ClassifyCtract(cliqueST(), cliqueTS(), nil)
	if rep.InCtract {
		t.Fatal("clique setting must be outside C_tract")
	}
	if len(rep.Witnesses) == 0 {
		t.Fatal("no witnesses for a non-C_tract setting")
	}
	// The paper's violation: z and z2 co-occur in head conjunct S(z,z2)
	// of ts-S while both occur in the body.
	var w *CtractWitness
	for i := range rep.Witnesses {
		if rep.Witnesses[i].Cond == "2.2" && rep.Witnesses[i].TGD == "ts-S" {
			w = &rep.Witnesses[i]
		}
	}
	if w == nil {
		t.Fatalf("no 2.2 witness for ts-S: %+v", rep.Witnesses)
	}
	if w.Atom != "S(z, z2)" {
		t.Errorf("witness atom = %q, want S(z, z2)", w.Atom)
	}
	if len(w.Vars) != 2 || w.Vars[0] != "z" || w.Vars[1] != "z2" {
		t.Errorf("witness vars = %v, want [z z2]", w.Vars)
	}
	if len(w.Chains) != 2 {
		t.Fatalf("chains = %+v, want 2 entries", w.Chains)
	}
	// Both variables are marked because they sit at the marked positions
	// P.1 / P.3, which st-D's existentials marked.
	for _, c := range w.Chains {
		if c.Existential {
			t.Errorf("chain %+v claims existential marking; want positional", c)
		}
		if c.Pos != "P.1" && c.Pos != "P.3" {
			t.Errorf("chain pos = %q, want P.1 or P.3", c.Pos)
		}
		if len(c.MarkedBy) != 1 || c.MarkedBy[0] != "st-D" {
			t.Errorf("chain marked_by = %v, want [st-D]", c.MarkedBy)
		}
	}
	// Violations mirror witness messages in the same order.
	for i, v := range rep.Violations {
		if i < len(rep.Witnesses) && v != rep.Witnesses[i].Message {
			t.Errorf("violation %d = %q does not match witness message %q", i, v, rep.Witnesses[i].Message)
		}
	}
}

func TestCtractWitnessExistentialChain(t *testing.T) {
	// ts tgd with an existential variable co-occurring with a marked one.
	st := []TGD{{
		Label: "st1",
		Body:  []Atom{NewAtom("S", Var("a"))},
		Head:  []Atom{NewAtom("T", Var("a"), Var("e"))},
	}}
	ts := []TGD{{
		Label: "ts1",
		Body:  []Atom{NewAtom("T", Var("x"), Var("m")), NewAtom("T", Var("m"), Var("y"))},
		Head:  []Atom{NewAtom("S2", Var("m"), Var("w"))},
	}}
	rep := ClassifyCtract(st, ts, nil)
	if rep.InCtract {
		t.Fatal("setting should be outside C_tract")
	}
	found := false
	for _, w := range rep.Witnesses {
		for _, c := range w.Chains {
			if c.Var == "w" && c.Existential {
				found = true
			}
			if c.Var == "m" && (c.Pos != "T.1" || len(c.MarkedBy) != 1 || c.MarkedBy[0] != "st1") {
				t.Errorf("chain for m = %+v, want pos T.1 marked by st1", c)
			}
		}
	}
	if !found {
		t.Errorf("no existential chain for w in %+v", rep.Witnesses)
	}
}

func TestClassifyCtractDeterministicOrder(t *testing.T) {
	st, ts := cliqueST(), cliqueTS()
	first := ClassifyCtract(st, ts, nil)
	for trial := 0; trial < 20; trial++ {
		rep := ClassifyCtract(st, ts, nil)
		if strings.Join(rep.Violations, "|") != strings.Join(first.Violations, "|") {
			t.Fatalf("violations order changed between runs:\n%v\nvs\n%v", rep.Violations, first.Violations)
		}
		if strings.Join(rep.TSOrder, "|") != "ts-E|ts-S" {
			t.Fatalf("TSOrder = %v, want input order [ts-E ts-S]", rep.TSOrder)
		}
	}
}
