package core

// Precomputed chase state for the generic solver, mirroring what
// TractableTrace is for the Figure 3 algorithm: everything the image
// search needs that depends only on (setting, I, J), not on the
// individual solve. pdxd caches these so repeat solves over the same
// (setting, instance) pair skip the chase phases entirely, and resumes
// them after instance appends.

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/rel"
)

// CanonicalTarget holds the chased canonical target of (I, J): the Σst
// chase result, the (optionally Σt-chased) J_can the image search runs
// over, and the null-naming state after all chases. Instances are
// frozen; a CanonicalTarget may be shared by concurrent solves.
type CanonicalTarget struct {
	// STResult is the Σst chase of I ∪ J, retained for chase.Resume
	// after an instance append.
	STResult *chase.Result
	// TResult is the Σt chase of J_can (nil when Σt is empty).
	TResult *chase.Result
	// TFailed reports a failing Σt chase: no solution exists for any
	// image, so solves short-circuit to an empty search.
	TFailed bool
	// JCan is the instance the image search assigns nulls over: the
	// target restriction of STResult, further chased with Σt when
	// present. nil when TFailed.
	JCan *rel.Instance
	// NullState is the null source's high-water mark after the chases;
	// per-solve leaf chases continue from it so resumed solves draw
	// exactly the labels a from-scratch run would.
	NullState int
}

// ChaseCanonicalTarget runs the chase phases of the generic solver for
// (s, i, j) and packages them for repeated ForEachImageSolutionFrom
// calls. It performs the same Σt class check as the solver.
func ChaseCanonicalTarget(s *Setting, i, j *rel.Instance, opts SolveOptions) (*CanonicalTarget, error) {
	if len(s.T) > 0 && !s.TargetTGDsWeaklyAcyclic() {
		return nil, ErrUnsupportedTargetTGDs
	}
	nulls := &rel.NullSource{}
	nulls.SeenIn(i)
	nulls.SeenIn(j)
	copts := chase.Options{Config: opts.Config, Nulls: nulls}
	res, err := chase.Run(rel.Union(i, j), s.StDeps(), copts)
	if err != nil {
		return nil, fmt.Errorf("core: chasing Σst: %w", err)
	}
	ct := &CanonicalTarget{STResult: res}
	jcan := res.Instance.Restrict(s.Target)
	res.Freeze()

	if len(s.T) > 0 {
		// Pre-chase J_can with Σt. The chase result is universal for the
		// solutions of (I, J) under Σst ∪ Σt (Lemmas 3 and 4 of the
		// paper / Lemma 3.4 of Fagin et al.), so running the image
		// search over its nulls preserves completeness while egd merges
		// shrink the search space and full-tgd consequences become
		// incrementally checkable facts. A failing chase proves that no
		// solution exists at all.
		tres, err := chase.Run(jcan, s.T, copts)
		if err != nil {
			return nil, fmt.Errorf("core: chasing Σt: %w", err)
		}
		tres.Freeze()
		ct.TResult = tres
		if tres.Failed {
			ct.TFailed = true
			ct.NullState = nulls.State()
			return ct, nil
		}
		jcan = tres.Instance
	}
	jcan.Freeze()
	ct.JCan = jcan
	ct.NullState = nulls.State()
	return ct, nil
}

// ForEachImageSolutionFrom is ForEachImageSolution over a precomputed
// canonical target: it runs only the image search, starting the
// per-solve null source from ct.NullState so leaf Σt chases never
// collide with the cached J_can's nulls. ct is not mutated.
func ForEachImageSolutionFrom(s *Setting, i, j *rel.Instance, ct *CanonicalTarget, opts SolveOptions, fn func(*rel.Instance) bool) (*SolveStats, error) {
	nulls := &rel.NullSource{}
	nulls.SetState(ct.NullState)
	copts := chase.Options{Config: opts.Config, Nulls: nulls}
	if ct.TFailed {
		sv := newImageSearch(s, i, j, rel.NewInstance(), opts, copts)
		sv.stats.Nodes = 0
		return &sv.stats, nil
	}
	sv := newImageSearch(s, i, j, ct.JCan, opts, copts)
	err := sv.run(fn)
	return &sv.stats, err
}

// ExistsSolutionGenericFrom is ExistsSolutionGeneric over a precomputed
// canonical target (see ChaseCanonicalTarget).
func ExistsSolutionGenericFrom(s *Setting, i, j *rel.Instance, ct *CanonicalTarget, opts SolveOptions) (bool, *rel.Instance, *SolveStats, error) {
	var witness *rel.Instance
	stats, err := ForEachImageSolutionFrom(s, i, j, ct, opts, func(sol *rel.Instance) bool {
		witness = sol
		return false // stop at the first solution
	})
	if err != nil {
		return false, nil, stats, err
	}
	return witness != nil, witness, stats, nil
}
