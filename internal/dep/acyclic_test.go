package dep

import "testing"

func TestFullTGDsWeaklyAcyclic(t *testing.T) {
	// Sets of full tgds are always weakly acyclic.
	tgds := []TGD{
		{
			Label: "f1",
			Body:  []Atom{NewAtom("A", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("B", Var("y"), Var("x"))},
		},
		{
			Label: "f2",
			Body:  []Atom{NewAtom("B", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("A", Var("x"), Var("y"))},
		},
	}
	if !WeaklyAcyclic(tgds) {
		t.Error("full tgds must be weakly acyclic")
	}
}

func TestSelfLoopExistentialNotWeaklyAcyclic(t *testing.T) {
	// T(x,y) -> exists z: T(y,z) creates a special self-edge on T.1.
	tgds := []TGD{{
		Label: "cyc",
		Body:  []Atom{NewAtom("T", Var("x"), Var("y"))},
		Head:  []Atom{NewAtom("T", Var("y"), Var("z"))},
	}}
	if WeaklyAcyclic(tgds) {
		t.Error("existential self-propagating tgd must not be weakly acyclic")
	}
}

func TestAcyclicInclusionWeaklyAcyclic(t *testing.T) {
	// A(x,y) -> exists z: B(x,z): special edge into B but no cycle.
	tgds := []TGD{{
		Label: "inc",
		Body:  []Atom{NewAtom("A", Var("x"), Var("y"))},
		Head:  []Atom{NewAtom("B", Var("x"), Var("z"))},
	}}
	if !WeaklyAcyclic(tgds) {
		t.Error("acyclic inclusion dependency must be weakly acyclic")
	}
}

func TestTwoTGDCycleThroughSpecialEdge(t *testing.T) {
	// A(x,y) -> exists z: B(x,z) and B(x,y) -> A(y,x):
	// special A.0 -> B.1, ordinary B.1 -> A.0 closes the cycle.
	tgds := []TGD{
		{
			Label: "t1",
			Body:  []Atom{NewAtom("A", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("B", Var("x"), Var("z"))},
		},
		{
			Label: "t2",
			Body:  []Atom{NewAtom("B", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("A", Var("y"), Var("x"))},
		},
	}
	if WeaklyAcyclic(tgds) {
		t.Error("cycle through special edge not detected")
	}
}

func TestOrdinaryCycleStillWeaklyAcyclic(t *testing.T) {
	// A cycle with no special edge is allowed: A(x,y) -> B(x,y),
	// B(x,y) -> A(x,y).
	tgds := []TGD{
		{
			Label: "t1",
			Body:  []Atom{NewAtom("A", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("B", Var("x"), Var("y"))},
		},
		{
			Label: "t2",
			Body:  []Atom{NewAtom("B", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("A", Var("x"), Var("y"))},
		},
	}
	if !WeaklyAcyclic(tgds) {
		t.Error("ordinary cycle must be weakly acyclic")
	}
}

func TestDependencyGraphEdges(t *testing.T) {
	tgds := []TGD{{
		Label: "t",
		Body:  []Atom{NewAtom("A", Var("x"), Var("y"))},
		Head:  []Atom{NewAtom("B", Var("x"), Var("z"))},
	}}
	g := BuildDependencyGraph(tgds)
	if !g.ordinary[Position{"A", 0}][Position{"B", 0}] {
		t.Error("missing ordinary edge A.0 -> B.0")
	}
	if !g.special[Position{"A", 0}][Position{"B", 1}] {
		t.Error("missing special edge A.0 -> B.1")
	}
	// y does not occur in the head: it contributes no edges.
	if g.special[Position{"A", 1}][Position{"B", 1}] {
		t.Error("variable absent from head contributed an edge")
	}
	if len(g.nodes) != 4 {
		t.Errorf("graph has %d nodes, want 4", len(g.nodes))
	}
}

func TestWeakAcyclicityChainDepth(t *testing.T) {
	// A chain T0 -> T1 -> ... -> Tk with existentials is weakly acyclic
	// for any depth.
	var tgds []TGD
	names := []string{"T0", "T1", "T2", "T3", "T4"}
	for i := 0; i+1 < len(names); i++ {
		tgds = append(tgds, TGD{
			Label: "chain",
			Body:  []Atom{NewAtom(names[i], Var("x"), Var("y"))},
			Head:  []Atom{NewAtom(names[i+1], Var("y"), Var("z"))},
		})
	}
	if !WeaklyAcyclic(tgds) {
		t.Error("existential chain must be weakly acyclic")
	}
}

func TestConstantsContributeNoEdges(t *testing.T) {
	tgds := []TGD{{
		Label: "c",
		Body:  []Atom{NewAtom("A", Cst("a"), Var("y"))},
		Head:  []Atom{NewAtom("A", Var("y"), Var("z"))},
	}}
	// y at A.1 occurs in head at A.0 (ordinary) and z at A.1 (special):
	// special edge A.1 -> A.1 is a self-loop -> not weakly acyclic.
	if WeaklyAcyclic(tgds) {
		t.Error("special self-loop must be detected")
	}
	g := BuildDependencyGraph(tgds)
	if g.ordinary[Position{"A", 0}][Position{"A", 0}] {
		t.Error("constant position contributed an edge")
	}
}
