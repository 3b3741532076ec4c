package qplan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/workload"
)

// enumBudget bounds the image-solution count a parity case may force on
// the enumeration path: a canonical target with k nulls over an active
// domain of size a has up to (a+1)^k image solutions.
const enumBudget = 200000

// TestCompiledParityRandom is the property suite behind the compiled
// path: over ≥50 random settings inside the compilable fragment, a
// random open and a random Boolean query must produce byte-identical
// results to the chase-backed enumeration.
func TestCompiledParityRandom(t *testing.T) {
	const wantCases = 50
	evaluated := 0
	for seed := int64(0); evaluated < wantCases; seed++ {
		if seed > 10*wantCases {
			t.Fatalf("only %d/%d cases evaluated after %d seeds", evaluated, wantCases, seed)
		}
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomCompilableSetting(rng)
		if r := ClassifySetting(s); r != FallbackNone {
			t.Fatalf("seed %d: generator left the fragment: %s", seed, r)
		}
		sp, err := CompileSetting(s)
		if err != nil {
			t.Fatalf("seed %d: CompileSetting: %v", seed, err)
		}
		i, j := workload.RandomCompilableInstance(rng)

		// Chase once; skip the case when enumerating its image solutions
		// would be infeasible for the reference path.
		ct, err := core.ChaseCanonicalTarget(s, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatalf("seed %d: chase: %v", seed, err)
		}
		nulls := len(ct.JCan.Nulls())
		adom := len(ct.JCan.ActiveDomain()) + len(i.ActiveDomain())
		if math.Pow(float64(adom+1), float64(nulls)) > enumBudget {
			continue
		}
		opts := certain.Options{Canonical: ct}

		for _, boolean := range []bool{false, true} {
			q := workload.RandomTargetQuery(rng, boolean)
			p, err := sp.CompileQuery(q)
			if err != nil {
				t.Fatalf("seed %d boolean=%v: CompileQuery: %v", seed, boolean, err)
			}
			var want certain.Result
			if boolean {
				want, err = certain.Boolean(s, i, j, q, opts)
			} else {
				want, err = certain.Answers(s, i, j, q, opts)
			}
			if err != nil {
				t.Fatalf("seed %d boolean=%v: enumeration: %v", seed, boolean, err)
			}
			got, err := p.Eval(i, j, EvalOptions{})
			if err != nil {
				t.Fatalf("seed %d boolean=%v: compiled: %v", seed, boolean, err)
			}
			if got.SolutionExists != want.SolutionExists ||
				got.Certain != want.Certain ||
				!reflect.DeepEqual(got.Answers, want.Answers) {
				t.Fatalf("seed %d boolean=%v:\nsetting: %v\nquery: %v\ncompiled:   %+v\nenumerated: %+v\nplan:\n%s",
					seed, boolean, s, q, got, want, p)
			}
		}
		evaluated++
	}
	t.Logf("parity held on %d random settings", evaluated)
}
