package oracle_test

import (
	"errors"
	"testing"

	"repro/internal/dep"
	"repro/internal/oracle"
	"repro/internal/rel"
)

// facts builds an instance from (relation, values...) rows.
func facts(rows ...[]any) *rel.Instance {
	inst := rel.NewInstance()
	for _, row := range rows {
		args := make([]rel.Value, 0, len(row)-1)
		for _, v := range row[1:] {
			switch v := v.(type) {
			case string:
				args = append(args, rel.Const(v))
			case int:
				args = append(args, rel.Null(v))
			}
		}
		inst.Add(row[0].(string), args...)
	}
	return inst
}

func row(vals ...any) []any { return vals }

// existB is A(x) -> ∃y B(x, y).
var existB = dep.TGD{
	Label: "ex",
	Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
	Head:  []dep.Atom{dep.NewAtom("B", dep.Var("x"), dep.Var("y"))},
}

func checkRun(t *testing.T, name string, got *oracle.ChaseResult, want *rel.Instance, steps, merges int) {
	t.Helper()
	if got.Instance.String() != want.String() {
		t.Errorf("%s: instance\n%s\nwant\n%s", name, got.Instance, want)
	}
	if got.Steps != steps || got.Merges != merges {
		t.Errorf("%s: steps=%d merges=%d, want %d and %d", name, got.Steps, got.Merges, steps, merges)
	}
}

// TestChaseRestrictedVsOblivious: the restricted chase skips the
// trigger B(a, c) already satisfies; the oblivious chase fires every
// trigger once, drawing nulls in trigger order.
func TestChaseRestrictedVsOblivious(t *testing.T) {
	start := facts(row("A", "a"), row("A", "b"), row("B", "a", "c"))
	deps := []dep.Dependency{existB}

	res, err := oracle.Chase(start, deps, nil, false, 100)
	if err != nil || res.Failed {
		t.Fatalf("restricted: failed=%v err=%v", res.Failed, err)
	}
	checkRun(t, "restricted", res, facts(row("A", "a"), row("A", "b"), row("B", "a", "c"), row("B", "b", 1)), 1, 0)

	res, err = oracle.Chase(start, deps, nil, true, 100)
	if err != nil || res.Failed {
		t.Fatalf("oblivious: failed=%v err=%v", res.Failed, err)
	}
	checkRun(t, "oblivious", res, facts(row("A", "a"), row("A", "b"), row("B", "a", "c"), row("B", "a", 1), row("B", "b", 2)), 2, 0)
	if start.NumFacts() != 3 {
		t.Error("Chase mutated its start instance")
	}
}

// TestChaseEgdFailsOnConstants: the key egd first merges the null into
// b (one merge step), then meets b ≠ c and fails on its second step.
func TestChaseEgdFailsOnConstants(t *testing.T) {
	key := dep.EGD{
		Label: "key",
		Body:  []dep.Atom{dep.NewAtom("R", dep.Var("x"), dep.Var("y")), dep.NewAtom("R", dep.Var("x"), dep.Var("z"))},
		Left:  "y", Right: "z",
	}
	start := facts(row("R", "a", 1), row("R", "a", "b"), row("R", "a", "c"))
	res, err := oracle.Chase(start, []dep.Dependency{key}, nil, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.FailedOn != "key" {
		t.Fatalf("failed=%v on %q, want failure on key", res.Failed, res.FailedOn)
	}
	checkRun(t, "egd", res, facts(row("R", "a", "b"), row("R", "a", "c")), 2, 1)
}

// TestChaseBudgetExhausted: the cyclic tgd E(x, y) -> ∃z E(y, z) grows
// one fact per round forever; a budget of 5 stops it after five steps
// with the instance as it stood.
func TestChaseBudgetExhausted(t *testing.T) {
	cyclic := dep.TGD{
		Label: "succ",
		Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))},
		Head:  []dep.Atom{dep.NewAtom("E", dep.Var("y"), dep.Var("z"))},
	}
	res, err := oracle.Chase(facts(row("E", "a", "b")), []dep.Dependency{cyclic}, nil, false, 5)
	if !errors.Is(err, oracle.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	want := facts(row("E", "a", "b"), row("E", "b", 1), row("E", 1, 2), row("E", 2, 3), row("E", 3, 4), row("E", 4, 5))
	checkRun(t, "cyclic", res, want, 5, 0)
}

// TestChaseSolutionAware: existential values come from the first
// extension into the witness, and no null is drawn.
func TestChaseSolutionAware(t *testing.T) {
	start := facts(row("A", "a"), row("A", "b"))
	witness := facts(row("A", "a"), row("A", "b"), row("B", "a", "c"), row("B", "b", "d"), row("B", "b", "e"))
	res, err := oracle.Chase(start, []dep.Dependency{existB}, witness, false, 100)
	if err != nil || res.Failed {
		t.Fatalf("failed=%v err=%v", res.Failed, err)
	}
	checkRun(t, "solution-aware", res, facts(row("A", "a"), row("A", "b"), row("B", "a", "c"), row("B", "b", "d")), 2, 0)

	if _, err := oracle.Chase(start, []dep.Dependency{existB}, start, false, 100); err == nil {
		t.Error("a witness violating the tgd was accepted")
	}
}
