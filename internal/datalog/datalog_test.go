package datalog_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/dep"
	"repro/internal/graph"
	"repro/internal/rel"
)

// tcProgram is the canonical transitive-closure program:
//
//	T(x,y) :- E(x,y)
//	T(x,z) :- T(x,y), E(y,z)
func tcProgram() *datalog.Program {
	return &datalog.Program{Rules: []datalog.Rule{
		{
			Label: "base",
			Head:  dep.NewAtom("T", dep.Var("x"), dep.Var("y")),
			Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))},
		},
		{
			Label: "step",
			Head:  dep.NewAtom("T", dep.Var("x"), dep.Var("z")),
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y")), dep.NewAtom("E", dep.Var("y"), dep.Var("z"))},
		},
	}}
}

func tcSchema() *rel.Schema { return rel.SchemaOf("E", 2, "T", 2) }

func pathEDB(n int) *rel.Instance {
	edb := rel.NewInstance()
	for k := 0; k+1 < n; k++ {
		edb.Add("E", vtx(k), vtx(k+1))
	}
	return edb
}

func vtx(v int) rel.Value { return rel.Const(string(rune('a' + v))) }

func TestValidate(t *testing.T) {
	p := tcProgram()
	if err := p.Validate(tcSchema()); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	unsafe := &datalog.Program{Rules: []datalog.Rule{{
		Label: "unsafe",
		Head:  dep.NewAtom("T", dep.Var("x"), dep.Var("w")),
		Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))},
	}}}
	if err := unsafe.Validate(tcSchema()); err == nil {
		t.Error("unsafe rule accepted")
	}
	if _, err := unsafe.Eval(pathEDB(3), datalog.Options{}); err == nil {
		t.Error("unsafe rule evaluated")
	}
	badRel := &datalog.Program{Rules: []datalog.Rule{{
		Label: "bad",
		Head:  dep.NewAtom("Z", dep.Var("x")),
		Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))},
	}}}
	if err := badRel.Validate(tcSchema()); err == nil {
		t.Error("unknown relation accepted")
	}
	empty := &datalog.Program{}
	if err := empty.Validate(tcSchema()); err == nil {
		t.Error("empty program accepted")
	}
	emptyBody := &datalog.Program{Rules: []datalog.Rule{{
		Label: "nb",
		Head:  dep.NewAtom("T", dep.Cst("a"), dep.Cst("b")),
	}}}
	if err := emptyBody.Validate(tcSchema()); err == nil {
		t.Error("empty body accepted")
	}
}

func TestTransitiveClosurePath(t *testing.T) {
	p := tcProgram()
	res, err := p.Eval(pathEDB(5), datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Path a-b-c-d-e: closure has n(n-1)/2 = 10 pairs.
	if res.Relation("T").Len() != 10 {
		t.Errorf("T has %d tuples, want 10:\n%s", res.Relation("T").Len(), res)
	}
	if !res.Contains(rel.Fact{Rel: "T", Args: rel.Tuple{vtx(0), vtx(4)}}) {
		t.Error("closure missing the long pair")
	}
	// The EDB is preserved.
	if res.Relation("E").Len() != 4 {
		t.Error("EDB mutated")
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	p := tcProgram()
	edb := pathEDB(4)
	edb.Add("E", vtx(3), vtx(0))
	res, err := p.Eval(edb, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cycle: T = all 16 ordered pairs (including self-loops via the
	// cycle).
	if res.Relation("T").Len() != 16 {
		t.Errorf("T has %d tuples, want 16", res.Relation("T").Len())
	}
}

func TestIDB(t *testing.T) {
	idb := tcProgram().IDB()
	if !idb["T"] || idb["E"] || len(idb) != 1 {
		t.Errorf("IDB = %v", idb)
	}
}

func TestSemiNaiveAgreesWithNaive(t *testing.T) {
	p := tcProgram()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := graph.Random(7, 0.3, rng)
		edb := rel.NewInstance()
		for _, e := range g.Edges() {
			edb.Add("E", vtx(e[0]), vtx(e[1]))
		}
		if edb.IsEmpty() {
			continue
		}
		semi, err := p.Eval(edb, datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := p.Naive(edb, datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !semi.Equal(naive) {
			t.Fatalf("trial %d: semi-naive and naive disagree:\n%s\nvs\n%s", trial, semi, naive)
		}
	}
}

func TestSameGeneration(t *testing.T) {
	// sg(x,y) :- flat(x,y)
	// sg(x,y) :- up(x,u), sg(u,v), down(v,y)
	p := &datalog.Program{Rules: []datalog.Rule{
		{
			Label: "flat",
			Head:  dep.NewAtom("Sg", dep.Var("x"), dep.Var("y")),
			Body:  []dep.Atom{dep.NewAtom("Flat", dep.Var("x"), dep.Var("y"))},
		},
		{
			Label: "updown",
			Head:  dep.NewAtom("Sg", dep.Var("x"), dep.Var("y")),
			Body: []dep.Atom{
				dep.NewAtom("Up", dep.Var("x"), dep.Var("u")),
				dep.NewAtom("Sg", dep.Var("u"), dep.Var("v")),
				dep.NewAtom("Down", dep.Var("v"), dep.Var("y")),
			},
		},
	}}
	edb := rel.NewInstance()
	// Two-level tree: a,b children of p; c,d children of q; p,q flat.
	edb.Add("Up", rel.Const("a"), rel.Const("p"))
	edb.Add("Up", rel.Const("b"), rel.Const("p"))
	edb.Add("Up", rel.Const("c"), rel.Const("q"))
	edb.Add("Up", rel.Const("d"), rel.Const("q"))
	edb.Add("Flat", rel.Const("p"), rel.Const("q"))
	edb.Add("Down", rel.Const("p"), rel.Const("a"))
	edb.Add("Down", rel.Const("p"), rel.Const("b"))
	edb.Add("Down", rel.Const("q"), rel.Const("c"))
	edb.Add("Down", rel.Const("q"), rel.Const("d"))
	res, err := p.Eval(edb, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sg: (p,q) plus every child of p with every child of q: 1 + 4 = 5.
	if res.Relation("Sg").Len() != 5 {
		t.Errorf("Sg has %d tuples, want 5:\n%s", res.Relation("Sg").Len(), res)
	}
	if !res.Contains(rel.Fact{Rel: "Sg", Args: rel.Tuple{rel.Const("a"), rel.Const("d")}}) {
		t.Error("cousin pair missing")
	}
}

func TestConstantsInRules(t *testing.T) {
	p := &datalog.Program{Rules: []datalog.Rule{{
		Label: "flagged",
		Head:  dep.NewAtom("Bad", dep.Var("x"), dep.Cst("flagged")),
		Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Cst("root"))},
	}}}
	edb := rel.NewInstance()
	edb.Add("E", rel.Const("u1"), rel.Const("root"))
	edb.Add("E", rel.Const("u2"), rel.Const("leaf"))
	res, err := p.Eval(edb, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation("Bad").Len() != 1 {
		t.Errorf("Bad = %d tuples:\n%s", res.Relation("Bad").Len(), res)
	}
	if !res.Contains(rel.Fact{Rel: "Bad", Args: rel.Tuple{rel.Const("u1"), rel.Const("flagged")}}) {
		t.Error("constant head not emitted")
	}
}

func TestDerivationBudget(t *testing.T) {
	// A cross-product rule that derives n^2 facts trips a small budget.
	p := &datalog.Program{Rules: []datalog.Rule{{
		Label: "cross",
		Head:  dep.NewAtom("T", dep.Var("x"), dep.Var("y")),
		Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("a")), dep.NewAtom("E", dep.Var("y"), dep.Var("b"))},
	}}}
	edb := rel.NewInstance()
	for k := 0; k < 20; k++ {
		edb.Add("E", vtx(k%26), rel.Const("t"))
	}
	if _, err := p.Eval(edb, datalog.Options{MaxDerivations: 10}); !errors.Is(err, chase.ErrBudgetExhausted) {
		t.Errorf("budget not enforced in semi-naive eval: %v", err)
	}
	if _, err := p.Naive(edb, datalog.Options{MaxDerivations: 10}); err == nil {
		t.Error("budget not enforced in naive eval")
	}
}

func TestRuleString(t *testing.T) {
	r := tcProgram().Rules[1]
	if got := r.String(); got != "T(x, z) :- T(x, y), E(y, z)" {
		t.Errorf("String = %q", got)
	}
}
