package repro

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chase"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/pde"
)

// gateMaxSteps is the step budget of both chases in the gate.
const gateMaxSteps = 2000

// TestDeltaChaseGateExamples is the CI parity gate for the chase
// engine: for every checked-in example setting, chasing a deterministic
// synthetic source instance with Σst (plus Σt) and the resulting
// target instance with Σts must fire exactly the same steps — and
// produce byte-identical instances and failure verdicts — as the naive
// reference chase (oracle.Chase).
// The cyclic example exhausts its step budget either way; the gate
// requires the budget error and the truncated instances to match too.
func TestDeltaChaseGateExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("examples", "settings", "*.pde"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example settings found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pde.ParseSetting(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		inst := syntheticSourceInstance(s.Source)
		inst.Freeze()

		stDeps := append(s.StDeps(), s.T...)
		t.Run(filepath.Base(file), func(t *testing.T) {
			ref, rerr := oracle.Chase(inst, stDeps, nil, false, gateMaxSteps)
			var jcan *rel.Instance
			var ref2 *oracle.ChaseResult
			var r2err error
			if rerr == nil && !ref.Failed {
				// Second phase: chase the target part back with Σts.
				jcan = ref.Instance.Restrict(s.Target)
				jcan.Freeze()
				ref2, r2err = oracle.Chase(jcan, s.TsDeps(), nil, false, gateMaxSteps)
			}
			semi, serr := chase.Run(inst, stDeps, chase.Options{MaxSteps: gateMaxSteps})
			compareChaseRuns(t, "Σst", ref, rerr, semi, serr)
			if jcan != nil {
				s2, s2err := chase.Run(jcan, s.TsDeps(), chase.Options{MaxSteps: gateMaxSteps})
				compareChaseRuns(t, "Σts", ref2, r2err, s2, s2err)
			}
		})
	}
}

func compareChaseRuns(t *testing.T, phase string, ref *oracle.ChaseResult, rerr error, semi *chase.Result, serr error) {
	t.Helper()
	if errors.Is(rerr, oracle.ErrBudgetExhausted) != errors.Is(serr, chase.ErrBudgetExhausted) || (rerr == nil) != (serr == nil) {
		t.Fatalf("%s: reference err=%v, engine err=%v", phase, rerr, serr)
	}
	if ref.Steps != semi.Steps {
		t.Fatalf("%s: engine fired %d steps, reference fired %d", phase, semi.Steps, ref.Steps)
	}
	if ref.Failed != semi.Failed || ref.FailedOn != semi.FailedOn {
		t.Fatalf("%s: failure verdicts differ: reference (%v, %q), engine (%v, %q)",
			phase, ref.Failed, ref.FailedOn, semi.Failed, semi.FailedOn)
	}
	if ref.Instance.String() != semi.Instance.String() {
		t.Fatalf("%s: instances differ\nreference:\n%s\nengine:\n%s", phase, ref.Instance, semi.Instance)
	}
}

// syntheticSourceInstance populates every source relation with a small
// deterministic fact set over a three-value domain, enough to wake up
// joins and self-joins in the example bodies.
func syntheticSourceInstance(schema *rel.Schema) *rel.Instance {
	dom := []rel.Value{rel.Const("a"), rel.Const("b"), rel.Const("c")}
	inst := rel.NewInstance()
	for _, name := range schema.Relations() {
		arity, _ := schema.Arity(name)
		for start := 0; start < len(dom); start++ {
			tup := make(rel.Tuple, arity)
			for pos := 0; pos < arity; pos++ {
				tup[pos] = dom[(start+pos)%len(dom)]
			}
			inst.AddTuple(name, tup)
		}
		// A diagonal fact exercises repeated-variable atoms.
		diag := make(rel.Tuple, arity)
		for pos := 0; pos < arity; pos++ {
			diag[pos] = dom[0]
		}
		inst.AddTuple(name, diag)
	}
	return inst
}
