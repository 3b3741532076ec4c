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

// TestViolationTextPinned pins the text and order of the reasons a
// candidate fails Definition 2: one missing J fact, then Σst, Σts and
// disjunctive Σts in setting order, then Σt. The candidate breaks each
// kind exactly once; the null _3 of a trigger prints as _N3.
func TestViolationTextPinned(t *testing.T) {
	s := mustSetting(t, `
setting pinned
source S/2, A/1, B/1, C/1
target T/2, U/1, V/2, W/2, K/1, M/1
st: S(x,y) -> exists z: T(x,z)
ts: U(x) -> A(x)
tsd: K(x), K(y) -> B(x) | C(y)
t: V(x,y), W(x,z) -> y = z
`)
	i := mustInstance(t, "S(a,b). A(u0).")
	j := mustInstance(t, "M(j).")
	jp := mustInstance(t, "U(u0). U(_3). V(k,p). W(k,q). K(m).")
	want := []string{
		"containment: J fact M(j) missing from candidate solution",
		"st1: trigger {x=a, y=b} has no head extension for S(x, y) -> exists z: T(x, z)",
		"ts1: trigger {x=_N3} has no head extension for U(x) -> A(x)",
		"tsd1: trigger {x=m, y=m} satisfies no disjunct of tsd1",
		"t1: egd t1 equates p and q",
	}
	var got []string
	for _, v := range s.SolutionViolations(i, j, jp) {
		got = append(got, v.String())
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("SolutionViolations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if exp := pde.ExplainNonSolution(s, i, j, jp); strings.Join(exp, "\n") != strings.Join(want, "\n") {
		t.Errorf("ExplainNonSolution:\n%s\nwant:\n%s", strings.Join(exp, "\n"), strings.Join(want, "\n"))
	}
	if pde.IsSolution(s, i, j, jp) {
		t.Error("IsSolution accepted a candidate with five violations")
	}
}
