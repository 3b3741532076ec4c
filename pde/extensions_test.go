package pde_test

import (
	"testing"

	"repro/pde"
)

const dataExchangeSrc = `
setting de
source Src/2
target T/2, U/2
st: Src(x,y) -> exists u: T(x,u)
t: T(x,u) -> U(x,x)
`

func TestUniversalSolutionAndCore(t *testing.T) {
	s := mustSetting(t, dataExchangeSrc)
	i := mustInstance(t, "Src(a,b). Src(a,c).")
	j := pde.NewInstance()
	sol, exists, err := pde.UniversalSolution(s, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if !exists || sol == nil {
		t.Fatal("universal solution should exist")
	}
	if !pde.IsSolution(s, i, j, sol) {
		t.Error("universal solution is not a solution")
	}
	// The restricted chase fires st once for x=a (the second trigger is
	// already satisfied), so the canonical solution here is already a
	// core; verify Core is at least idempotent and no larger.
	c := pde.Core(sol)
	if c.NumFacts() > sol.NumFacts() {
		t.Errorf("core grew: %d -> %d", sol.NumFacts(), c.NumFacts())
	}
	if !pde.IsSolution(s, i, j, c) {
		t.Error("core is not a solution")
	}
	if !pde.Core(c).Equal(c) {
		t.Error("core not idempotent")
	}
}

func TestUniversalSolutionFailingChase(t *testing.T) {
	s := mustSetting(t, `
setting dekey
source Src/2
target T/2
st: Src(x,y) -> T(x,y)
t: T(x,y), T(x,z) -> y = z
`)
	i := mustInstance(t, "Src(a,b). Src(a,c).")
	_, exists, err := pde.UniversalSolution(s, i, pde.NewInstance())
	if err != nil {
		t.Fatal(err)
	}
	if exists {
		t.Error("failing chase should report no solution")
	}
}

func TestCertainAnswersDataExchange(t *testing.T) {
	s := mustSetting(t, dataExchangeSrc)
	i := mustInstance(t, "Src(a,b). Src(c,d).")
	queries, err := pde.ParseQueries(`
qU(x) :- U(x, x)
qT(x, u) :- T(x, u)
`)
	if err != nil {
		t.Fatal(err)
	}
	// U(a,a), U(c,c) are certain; T's second column is a null, so no
	// T-tuple is certain.
	resU, err := pde.CertainAnswersDataExchange(s, i, pde.NewInstance(), queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(resU.Answers) != 2 {
		t.Errorf("qU answers = %v, want [(a) (c)]", resU.Answers)
	}
	resT, err := pde.CertainAnswersDataExchange(s, i, pde.NewInstance(), queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(resT.Answers) != 0 {
		t.Errorf("qT answers = %v, want none (nulls are not certain)", resT.Answers)
	}
}

func TestCertainAnswersDataExchangeRejectsTS(t *testing.T) {
	s := mustSetting(t, example1)
	queries, _ := pde.ParseQueries("q(x,y) :- H(x,y)")
	if _, err := pde.CertainAnswersDataExchange(s, pde.NewInstance(), pde.NewInstance(), queries[0]); err == nil {
		t.Error("PDE setting accepted by the data-exchange evaluator")
	}
}

func TestRepairsFacade(t *testing.T) {
	s := mustSetting(t, example1)
	i := mustInstance(t, "E(a,a).")
	j := mustInstance(t, "H(a,a). H(b,b).")
	res, err := pde.Repairs(s, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intact {
		t.Error("dirty target reported intact")
	}
	if len(res.Repairs) != 1 || res.Repairs[0].Removed != 1 {
		t.Errorf("repairs = %+v", res.Repairs)
	}
}

func TestCertainUnderRepairsFacade(t *testing.T) {
	s := mustSetting(t, example1)
	i := mustInstance(t, "E(a,a).")
	j := mustInstance(t, "H(a,a). H(b,b).")
	queries, err := pde.ParseQueries(`
qa :- H('a', 'a')
qb :- H('b', 'b')
open(x) :- H(x, x)
`)
	if err != nil {
		t.Fatal(err)
	}
	// Under repairs, H(a,a) survives (certain), H(b,b) is repaired away.
	resA, err := pde.CertainUnderRepairs(s, i, j, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !resA.Certain || !resA.SolutionExists {
		t.Errorf("qa = %+v, want certain", resA)
	}
	resB, err := pde.CertainUnderRepairs(s, i, j, queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if resB.Certain {
		t.Error("qb should not be certain (its fact is repaired away)")
	}
	open, err := pde.CertainUnderRepairs(s, i, j, queries[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(open.Answers) != 1 || open.Answers[0].String() != "(a)" {
		t.Errorf("open answers = %v, want [(a)]", open.Answers)
	}
}

func TestQueriesWithConstantsInBody(t *testing.T) {
	s := mustSetting(t, example1)
	i := mustInstance(t, "E(a,a).")
	queries, err := pde.ParseQueries("q :- H('a', y)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pde.CertainAnswers(s, i, pde.NewInstance(), queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certain {
		t.Error("H(a,·) should be certain for the self-loop instance")
	}
}
