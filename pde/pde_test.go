package pde_test

import (
	"strings"
	"testing"

	"repro/pde"
)

const example1 = `
setting example1
source E/2
target H/2
st: E(x,z), E(z,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
`

func mustSetting(t *testing.T, src string) *pde.Setting {
	t.Helper()
	s, err := pde.ParseSetting(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustInstance(t *testing.T, src string) *pde.Instance {
	t.Helper()
	inst, err := pde.ParseInstance(src)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestQuickstartFlow(t *testing.T) {
	s := mustSetting(t, example1)
	i := mustInstance(t, "E(a,b). E(b,c). E(a,c).")
	j := pde.NewInstance()

	res, err := pde.ExistsSolution(s, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatal("solution should exist")
	}
	if res.Strategy != pde.StrategyTractable {
		t.Errorf("strategy = %s, want tractable (Example 1 is in C_tract)", res.Strategy)
	}

	found, err := pde.FindSolution(s, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if found.Solution == nil || !pde.IsSolution(s, i, j, found.Solution) {
		t.Errorf("FindSolution witness invalid: %v", found.Solution)
	}
}

func TestExistsSolutionNoSolution(t *testing.T) {
	s := mustSetting(t, example1)
	i := mustInstance(t, "E(a,b). E(b,c).")
	res, err := pde.ExistsSolution(s, i, pde.NewInstance())
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists {
		t.Error("no solution expected")
	}
	if exp := pde.ExplainNonSolution(s, i, pde.NewInstance(), pde.NewInstance()); len(exp) == 0 {
		t.Error("empty target should be explained as non-solution (Σst violated)")
	}
}

func TestForceGenericAgrees(t *testing.T) {
	s := mustSetting(t, example1)
	for _, src := range []string{"E(a,b). E(b,c).", "E(a,a).", "E(a,b). E(b,c). E(a,c)."} {
		i := mustInstance(t, src)
		a, err := pde.ExistsSolution(s, i, pde.NewInstance())
		if err != nil {
			t.Fatal(err)
		}
		b, err := pde.ExistsSolution(s, i, pde.NewInstance(), pde.Options{ForceGeneric: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.Exists != b.Exists {
			t.Errorf("%q: tractable=%v generic=%v", src, a.Exists, b.Exists)
		}
		if b.Strategy != pde.StrategyGeneric {
			t.Errorf("forced strategy = %s", b.Strategy)
		}
	}
}

func TestInstanceSchemaValidation(t *testing.T) {
	s := mustSetting(t, example1)
	badSource := mustInstance(t, "Zap(a).")
	if _, err := pde.ExistsSolution(s, badSource, pde.NewInstance()); err == nil {
		t.Error("source instance outside schema accepted")
	}
	badTarget := mustInstance(t, "E(a,b).")
	if _, err := pde.ExistsSolution(s, pde.NewInstance(), badTarget); err == nil {
		t.Error("target instance holding source relations accepted")
	}
}

func TestCertainFlow(t *testing.T) {
	s := mustSetting(t, example1)
	queries, err := pde.ParseQueries("q :- H(x,y), H(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	q := queries[0]

	res, err := pde.CertainAnswers(s, mustInstance(t, "E(a,a)."), pde.NewInstance(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certain || !res.SolutionExists {
		t.Errorf("certain = %+v, want true", res)
	}

	res, err = pde.CertainAnswers(s, mustInstance(t, "E(a,b). E(b,c). E(a,c)."), pde.NewInstance(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Certain {
		t.Error("certain should be false on the triangle instance")
	}
}

func TestCertainAnswersOpenQuery(t *testing.T) {
	s := mustSetting(t, example1)
	queries, err := pde.ParseQueries("q(x, y) :- H(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pde.CertainAnswers(s, mustInstance(t, "E(a,b). E(b,c). E(a,c)."), pde.NewInstance(), queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].String() != "(a, c)" {
		t.Errorf("answers = %v, want [(a, c)]", res.Answers)
	}
}

func TestCertainValidatesQuery(t *testing.T) {
	s := mustSetting(t, example1)
	queries, err := pde.ParseQueries("q :- Zap(x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pde.CertainAnswers(s, pde.NewInstance(), pde.NewInstance(), queries[0]); err == nil {
		t.Error("query over unknown relation accepted")
	}
}

func TestClassifyAndFormat(t *testing.T) {
	s := mustSetting(t, example1)
	rep := pde.Classify(s)
	if !rep.InCtract {
		t.Errorf("Example 1 should be in C_tract: %s", rep.Summary())
	}
	text := pde.FormatSetting(s)
	if !strings.Contains(text, "st: E(x, z), E(z, y) -> H(x, y)") {
		t.Errorf("FormatSetting output unexpected:\n%s", text)
	}
	back, err := pde.ParseSetting(text)
	if err != nil {
		t.Fatalf("FormatSetting output does not re-parse: %v", err)
	}
	if !pde.Classify(back).InCtract {
		t.Error("round-tripped setting classified differently")
	}
}

func TestValueConstructors(t *testing.T) {
	inst := pde.NewInstance()
	inst.Add("H", pde.Const("a"), pde.NullValue(1))
	if inst.NumFacts() != 1 {
		t.Error("Add through facade failed")
	}
	if pde.FormatInstance(inst) != "H(a, _1)." {
		t.Errorf("FormatInstance = %q", pde.FormatInstance(inst))
	}
}
