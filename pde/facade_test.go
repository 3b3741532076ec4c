package pde_test

import (
	"context"
	"errors"
	"testing"

	"repro/pde"
)

// cliqueExample is the Theorem 3 clique reduction (outside C_tract), a
// setting on which the generic solver does real search work — the
// fixture for the budget and cancellation round-trip tests.
const cliqueExample = `
setting clique
source D/2, S/2, E/2
target P/4
st: D(x,y) -> exists z, w: P(x,z,y,w)
ts: P(x,z,y,w) -> E(z,w)
ts: P(x,z,y,w), P(y,z2,y2,w2) -> S(w,z2)
`

// cliqueInstance encodes "does a path of 4 vertices contain a
// 3-clique?" (it does not), so the complete solver must exhaust an
// exponential search space to answer.
const cliqueInstance = `
D(a1,a2). D(a2,a1). D(a1,a3). D(a3,a1). D(a2,a3). D(a3,a2).
S(v0,v0). S(v1,v1). S(v2,v2). S(v3,v3).
E(v0,v1). E(v1,v0). E(v1,v2). E(v2,v1). E(v2,v3). E(v3,v2).
`

func TestErrSearchBudgetRoundTrip(t *testing.T) {
	s := mustSetting(t, cliqueExample)
	i, err := pde.ParseInstance(cliqueInstance)
	if err != nil {
		t.Fatal(err)
	}
	opts := pde.Options{MaxNodes: 5}
	_, err = pde.ExistsSolution(s, i, pde.NewInstance(), opts)
	if err == nil {
		t.Fatal("want a budget error, got nil")
	}
	if !errors.Is(err, pde.ErrSearchBudget) {
		t.Errorf("errors.Is(err, pde.ErrSearchBudget) = false for %v", err)
	}
	if errors.Is(err, pde.ErrCanceled) {
		t.Errorf("budget error unexpectedly matches pde.ErrCanceled: %v", err)
	}
}

func TestErrCanceledRoundTripGeneric(t *testing.T) {
	s := mustSetting(t, cliqueExample)
	i, err := pde.ParseInstance(cliqueInstance)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the search starts
	_, err = pde.ExistsSolutionContext(ctx, s, i, pde.NewInstance())
	if err == nil {
		t.Fatal("want a cancellation error, got nil")
	}
	if !errors.Is(err, pde.ErrCanceled) {
		t.Errorf("errors.Is(err, pde.ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if errors.Is(err, pde.ErrSearchBudget) {
		t.Errorf("cancellation error unexpectedly matches pde.ErrSearchBudget: %v", err)
	}
}

func TestErrCanceledRoundTripTractable(t *testing.T) {
	s := mustSetting(t, example1)
	i, err := pde.ParseInstance("E(a,b). E(b,c). E(a,c).")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = pde.ExistsSolutionContext(ctx, s, i, pde.NewInstance())
	if err == nil {
		t.Fatal("want a cancellation error from the tractable path, got nil")
	}
	if !errors.Is(err, pde.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation identities missing from %v", err)
	}
}

func TestErrCanceledRoundTripCertain(t *testing.T) {
	s := mustSetting(t, example1)
	i, err := pde.ParseInstance("E(a,a).")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := pde.ParseQueries("q(x,y) :- H(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = pde.CertainAnswersContext(ctx, s, i, pde.NewInstance(), qs[0])
	if err == nil {
		t.Fatal("want a cancellation error, got nil")
	}
	if !errors.Is(err, pde.ErrCanceled) {
		t.Errorf("errors.Is(err, pde.ErrCanceled) = false for %v", err)
	}
}

func TestContextVariantsAgreeWithPlainCalls(t *testing.T) {
	s := mustSetting(t, example1)
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"E(a,b). E(b,c).", false},
		{"E(a,a).", true},
		{"E(a,b). E(b,c). E(a,c).", true},
	} {
		i, err := pde.ParseInstance(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pde.ExistsSolutionContext(context.Background(), s, i, pde.NewInstance())
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if res.Exists != tc.want {
			t.Errorf("%s: exists = %v, want %v", tc.src, res.Exists, tc.want)
		}
	}
}

// TestFacadeStatsEndToEnd drives the generic solver and the
// certain-answers evaluator through the façade and checks the verdict,
// the reported node count and the answers.
func TestFacadeStatsEndToEnd(t *testing.T) {
	s := mustSetting(t, example1)
	clique := mustSetting(t, cliqueExample)
	ci, err := pde.ParseInstance(cliqueInstance)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pde.ExistsSolution(clique, ci, pde.NewInstance())
	if err != nil {
		t.Fatal(err)
	}
	if a.Exists {
		t.Error("path graph has no 3-clique; solver says it does")
	}
	if a.Nodes == 0 {
		t.Error("generic solve reported 0 nodes; Result.Nodes is not wired")
	}

	tri, err := pde.ParseInstance("E(a,b). E(b,c). E(a,c).")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := pde.ParseQueries("q(x,y) :- H(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := pde.CertainAnswers(s, tri, pde.NewInstance(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Answers) != 1 {
		t.Errorf("certain answers %v, want exactly [(a, c)]", ca.Answers)
	}
}

// lavExample is a setting inside the compilable C_tract fragment: the
// st-tgd invents a null per person, and the ts obligation touches only
// the constant positions.
const lavExample = `
setting lav
source Person/2, Member/2
target Rec/3
st: Person(x,g) -> exists u: Rec(x,g,u)
ts: Rec(x,g,u) -> Member(x,g)
`

func TestCertainCompiledOption(t *testing.T) {
	s := mustSetting(t, lavExample)
	i, err := pde.ParseInstance("Person(p1,g1). Person(p2,g1). Member(p1,g1). Member(p2,g1).")
	if err != nil {
		t.Fatal(err)
	}
	j := pde.NewInstance()
	qs, err := pde.ParseQueries("q(x,g) :- Rec(x,g,u)")
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]

	plain, err := pde.CertainAnswers(s, i, j, q)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := pde.CertainAnswers(s, i, j, q, pde.Options{Compiled: true})
	if err != nil {
		t.Fatal(err)
	}
	if !compiled.Compiled || compiled.FallbackReason != "" {
		t.Fatalf("compiled path did not run: %+v", compiled)
	}
	if len(compiled.Answers) != 2 || len(plain.Answers) != len(compiled.Answers) {
		t.Fatalf("answers differ: compiled %v, plain %v", compiled.Answers, plain.Answers)
	}
	for k := range plain.Answers {
		if plain.Answers[k].String() != compiled.Answers[k].String() {
			t.Fatalf("answers differ at %d: compiled %v, plain %v", k, compiled.Answers, plain.Answers)
		}
	}
	if got := pde.ClassifyCompilable(s); got != "" {
		t.Fatalf("ClassifyCompilable = %q, want compilable", got)
	}
}

func TestCertainCompiledFallback(t *testing.T) {
	// A target egd pushes the setting outside the compilable fragment:
	// the call must fall back to enumeration and say why.
	s := mustSetting(t, `
setting keyed
source Person/2
target Rec/2
st: Person(x,g) -> Rec(x,g)
t: Rec(x,g), Rec(x,h) -> g = h
`)
	i, err := pde.ParseInstance("Person(p1,g1).")
	if err != nil {
		t.Fatal(err)
	}
	j := pde.NewInstance()
	qs, err := pde.ParseQueries("q(x,g) :- Rec(x,g)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pde.CertainAnswers(s, i, j, qs[0], pde.Options{Compiled: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compiled || res.FallbackReason != "target-deps" {
		t.Fatalf("want enumeration fallback with reason target-deps, got %+v", res)
	}
	if !res.SolutionExists || len(res.Answers) != 1 {
		t.Fatalf("fallback result wrong: %+v", res)
	}
	if got := pde.ClassifyCompilable(s); got != "target-deps" {
		t.Fatalf("ClassifyCompilable = %q", got)
	}
	if _, err := pde.CompileCertain(s, qs[0]); pde.CompiledFallbackReason(err) != "target-deps" {
		t.Fatalf("CompileCertain err = %v", err)
	}
}
