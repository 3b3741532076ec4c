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

// referenceChase runs the restricted (witness nil) or solution-aware
// oracle.Chase under the engine's default budget.
func referenceChase(start *rel.Instance, deps []dep.Dependency, witness *rel.Instance) resultFingerprint {
	return oracleFingerprint(oracle.Chase(start, deps, witness, false, chase.DefaultMaxSteps))
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

// randomMergeJoin generates an egd workload in which merges create new
// tgd body matches. Each key a_k holds a labeled null n_k beside a
// constant c_k in the keyed relation K, so the key egd merges n_k into
// c_k. That rewrites in place the facts R(n_k, d_k) and K(b_k, n_k)
// into R(c_k, d_k) and K(b_k, c_k), which join S(c_k) for the two join
// tgds. The tgds come first in dependency order, so they collect their
// triggers before the first merge; afterwards only the merge change log
// (hom.DeltaSpec.Changed) shows the rewritten facts to the semi-naive
// trigger collection.
func randomMergeJoin(rng *rand.Rand) ([]dep.Dependency, *rel.Instance) {
	x, y, z, w := dep.Var("x"), dep.Var("y"), dep.Var("z"), dep.Var("w")
	deps := []dep.Dependency{
		dep.TGD{Label: "joinR", Body: []dep.Atom{dep.NewAtom("R", y, w), dep.NewAtom("S", y)}, Head: []dep.Atom{dep.NewAtom("Q", w)}},
		dep.TGD{Label: "joinK", Body: []dep.Atom{dep.NewAtom("K", x, y), dep.NewAtom("S", y)}, Head: []dep.Atom{dep.NewAtom("Q", x)}},
	}
	rng.Shuffle(len(deps), func(a, b int) { deps[a], deps[b] = deps[b], deps[a] })
	deps = append(deps, dep.EGD{Label: "key", Body: []dep.Atom{dep.NewAtom("K", x, y), dep.NewAtom("K", x, z)}, Left: "y", Right: "z"})
	inst := rel.NewInstance()
	for k := 0; k < 2+rng.Intn(3); k++ {
		a, c, n := rel.Const(fmt.Sprintf("a%d", k)), rel.Const(fmt.Sprintf("c%d", k)), rel.Null(k+1)
		inst.Add("K", a, n)
		inst.Add("K", a, c)
		if rng.Intn(3) > 0 {
			inst.Add("S", c)
		}
		if rng.Intn(2) == 0 {
			inst.Add("R", n, rel.Const(fmt.Sprintf("d%d", k)))
		}
		if rng.Intn(2) == 0 {
			inst.Add("K", rel.Const(fmt.Sprintf("b%d", k)), n)
		}
	}
	return deps, inst
}

// TestEngineParityProperty is the parity property suite for the
// union-find egd engine: over random egd-bearing settings and start
// instances, the engine and the reference chase must produce
// byte-identical instances, step and merge counts, failure verdicts,
// and EgdFired flags — in restricted and solution-aware modes. The last
// trials use randomMergeJoin, whose merges create tgd body matches.
func TestEngineParityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials, mergeJoinTrials = 40, 20
	merged := 0
	for trial := 0; trial < trials+mergeJoinTrials; trial++ {
		var deps []dep.Dependency
		var inst *rel.Instance
		if trial < trials {
			deps = workload.RandomWeaklyAcyclicDeps(rng)
			inst = workload.RandomLayerInstance(rng)
			injectNullDrafts(rng, inst)
		} else {
			deps, inst = randomMergeJoin(rng)
		}

		// Solution-aware witness: the fixpoint of a plain restricted
		// chase satisfies all deps and contains the start instance.
		var witness *rel.Instance
		if res, err := chase.Run(inst, deps, chase.Options{}); err == nil && !res.Failed {
			witness = res.Instance
		}

		for _, mode := range []string{"restricted", "solution-aware"} {
			if mode == "solution-aware" && witness == nil {
				continue
			}
			var want resultFingerprint
			if mode == "solution-aware" {
				want = referenceChase(inst, deps, witness)
			} else {
				want = referenceChase(inst, deps, nil)
			}
			name := fmt.Sprintf("trial %d mode %s", trial, mode)
			opts := chase.Options{}
			var res *chase.Result
			var err error
			if mode == "solution-aware" {
				res, err = chase.RunSolutionAware(inst, deps, witness, opts)
			} else {
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
			if !chase.Check(res.Instance, deps, hom.Options{}) {
				t.Fatalf("%s: union-find fixpoint violates deps", name)
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
	deps := workload.KeyedLAVDeps()
	i, j := workload.KeyedLAVInstance(80)
	start := rel.Union(i, j)
	want := referenceChase(start, deps, nil)
	if want.err != "" {
		t.Fatalf("reference chase errored: %s", want.err)
	}
	res, err := chase.Run(start, deps, chase.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if got := fingerprint(res, nil); got != want {
		t.Fatalf("engine diverges from the reference chase:\n  engine: %+v\n  oracle: %+v", got, want)
	}
	if res.Merges == 0 {
		t.Fatal("keyed LAV workload produced no merges")
	}
}
