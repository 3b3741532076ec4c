package chase_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/workload"
)

// resultFingerprint captures every observable surface of a chase run
// that the engine promises to keep byte-identical to the reference
// chase (oracle.Chase).
type resultFingerprint struct {
	inst     string
	steps    int
	merges   int
	failed   bool
	failedOn string
	egdFired bool
	err      string
}

// errKind classifies a chase error: "" for none, "budget" for budget
// exhaustion, "error" for anything else (the two implementations word
// their other errors differently).
func errKind(err, budget error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, budget):
		return "budget"
	default:
		return "error"
	}
}

func fingerprint(res *chase.Result, err error) resultFingerprint {
	fp := resultFingerprint{err: errKind(err, chase.ErrBudgetExhausted)}
	if res == nil {
		return fp
	}
	fp.steps, fp.merges = res.Steps, res.Merges
	fp.failed, fp.failedOn = res.Failed, res.FailedOn
	fp.egdFired = res.EgdFired
	if res.Instance != nil {
		fp.inst = res.Instance.String()
	}
	return fp
}

func oracleFingerprint(res *oracle.ChaseResult, err error) resultFingerprint {
	fp := resultFingerprint{err: errKind(err, oracle.ErrBudgetExhausted)}
	if res == nil {
		return fp
	}
	fp.steps, fp.merges = res.Steps, res.Merges
	fp.failed, fp.failedOn = res.Failed, res.FailedOn
	fp.egdFired = res.Merges > 0
	fp.inst = res.Instance.String()
	return fp
}

// referenceChase runs oracle.Chase under the engine's default budget.
func referenceChase(start *rel.Instance, deps []dep.Dependency, witness *rel.Instance, oblivious bool) resultFingerprint {
	return oracleFingerprint(oracle.Chase(start, deps, witness, oblivious, chase.DefaultMaxSteps))
}

// injectNullDrafts seeds key violations into a random layer instance:
// for a handful of first-column values that already appear, it adds a
// second fact with a labeled null in the dependent column. Restricted
// chases only fire merges on violations present in (or derived from)
// the start instance, so without these drafts most random trials never
// exercise the merge path at all.
func injectNullDrafts(rng *rand.Rand, inst *rel.Instance) {
	next := 1
	for _, name := range []string{"L0", "L1"} {
		r := inst.Relation(name)
		if r == nil || r.Len() == 0 {
			continue
		}
		for d := 0; d < 1+rng.Intn(2); d++ {
			key := r.TupleAt(rng.Intn(r.Len()))[0]
			inst.Add(name, key, rel.Null(next))
			next++
			if rng.Intn(2) == 0 {
				inst.Add(name, key, rel.Null(next))
				next++
			}
		}
	}
}

// TestEngineParityProperty is the parity property suite for the
// union-find egd engine: over random egd-bearing settings and start
// instances, the engine and the reference chase must produce
// byte-identical instances, step and merge counts, failure verdicts,
// and EgdFired flags — in restricted, oblivious, and solution-aware
// modes, with the engine at Parallelism 1 and 4.
func TestEngineParityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 40
	merged := 0
	for trial := 0; trial < trials; trial++ {
		deps := workload.RandomWeaklyAcyclicDeps(rng)
		inst := workload.RandomLayerInstance(rng)
		injectNullDrafts(rng, inst)

		// Solution-aware witness: the fixpoint of a plain restricted
		// chase satisfies all deps and contains the start instance.
		var witness *rel.Instance
		if res, err := chase.Run(inst, deps, chase.Options{}); err == nil && !res.Failed {
			witness = res.Instance
		}

		for _, mode := range []string{"restricted", "oblivious", "solution-aware"} {
			if mode == "solution-aware" && witness == nil {
				continue
			}
			var want resultFingerprint
			switch mode {
			case "oblivious":
				want = referenceChase(inst, deps, nil, true)
			case "solution-aware":
				want = referenceChase(inst, deps, witness, false)
			default:
				want = referenceChase(inst, deps, nil, false)
			}
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("trial %d mode %s par %d", trial, mode, par)
				opts := chase.Options{Parallelism: par}
				var res *chase.Result
				var err error
				switch mode {
				case "oblivious":
					opts.Oblivious = true
					res, err = chase.Run(inst, deps, opts)
				case "solution-aware":
					res, err = chase.RunSolutionAware(inst, deps, witness, opts)
				default:
					res, err = chase.Run(inst, deps, opts)
				}
				if got := fingerprint(res, err); got != want {
					t.Fatalf("%s: engine diverges from the reference chase:\n  engine: %+v\n  oracle: %+v", name, got, want)
				}
				if res == nil || res.Failed || err != nil {
					continue
				}
				if res.Merges > 0 {
					merged++
					if res.UnionFind == nil {
						t.Fatalf("%s: merging run retained no union-find", name)
					}
				}
				if !chase.Check(res.Instance, deps, hom.Options{Parallelism: par}) {
					t.Fatalf("%s: union-find fixpoint violates deps", name)
				}
			}
		}
	}
	if merged == 0 {
		t.Fatal("property suite never exercised the merge path; strengthen injectNullDrafts")
	}
}

// TestEngineParityKeyedLAV pins parity on the structured egd-heavy
// workload used by the benchmarks, where every person contributes
// exactly one merge.
func TestEngineParityKeyedLAV(t *testing.T) {
	s := workload.KeyedLAVSetting()
	deps := append(append([]dep.Dependency{}, s.StDeps()...), s.T...)
	i, j := workload.KeyedLAVInstance(80)
	start := rel.Union(i, j)
	want := referenceChase(start, deps, nil, false)
	if want.err != "" {
		t.Fatalf("reference chase errored: %s", want.err)
	}
	for _, par := range []int{1, 4} {
		res, err := chase.Run(start, deps, chase.Options{Parallelism: par})
		if err != nil {
			t.Fatalf("par %d: engine: %v", par, err)
		}
		if got := fingerprint(res, nil); got != want {
			t.Fatalf("par %d: engine diverges from the reference chase:\n  engine: %+v\n  oracle: %+v", par, got, want)
		}
		if res.Merges == 0 {
			t.Fatalf("par %d: keyed LAV workload produced no merges", par)
		}
	}
}
