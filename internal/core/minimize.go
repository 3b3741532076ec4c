package core

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/rel"
)

// SmallSolution implements the constructive content of Lemma 2: given
// any solution jsol for (I, J), it extracts a solution J* contained in
// jsol whose size is bounded by a polynomial in the size of (I, J).
//
// J* is the target part of the solution-aware chase of (I, J) with
// Σst ∪ Σt, witnessed by (I, jsol): existential variables are witnessed
// by values of jsol instead of fresh nulls, so the result stays inside
// jsol, and Lemma 1 bounds the number of chase steps polynomially. The
// result satisfies Σst and Σt by chase termination, contains J, and
// inherits Σts from jsol because target-to-source dependencies are
// preserved under subsets of the target instance.
func SmallSolution(s *Setting, i, j, jsol *rel.Instance, opts SolveOptions) (*rel.Instance, error) {
	if len(s.TSDisj) > 0 {
		return nil, fmt.Errorf("core: SmallSolution does not support disjunctive Σts")
	}
	deps := s.StDeps()
	deps = append(deps, s.T...)
	witness := rel.Union(i, jsol)
	copts := chase.Options{Config: opts.Config}
	res, err := chase.RunSolutionAware(rel.Union(i, j), deps, witness, copts)
	if err != nil {
		return nil, fmt.Errorf("core: solution-aware chase: %w", err)
	}
	if res.Failed {
		return nil, fmt.Errorf("core: solution-aware chase failed on %s; jsol is not a solution", res.FailedOn)
	}
	small := res.Instance.Restrict(s.Target)
	if !s.IsSolution(i, j, small) {
		return nil, fmt.Errorf("core: extracted instance is not a solution; jsol was not a solution for (I, J)")
	}
	return small, nil
}

// MinimizeSolution greedily removes facts from jsol (never the facts of
// j) while the result remains a solution for (I, J), until no single
// fact can be removed. The result is a subset-minimal solution between
// j and jsol; it is generally not of minimum cardinality (finding that
// is NP-hard), but it is what the small-solution experiments measure.
//
// The greedy fixpoint polls opts.Ctx between rounds: a canceled run
// returns the solution minimized so far, which need not be
// subset-minimal — callers that set Ctx MUST check Ctx.Err()
// afterwards and discard the result when non-nil.
func MinimizeSolution(s *Setting, i, j, jsol *rel.Instance, opts SolveOptions) *rel.Instance {
	cur := jsol.Clone()
	for {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return cur
		}
		removed := false
		for _, f := range cur.Facts() {
			if j.Contains(f) {
				continue
			}
			fk := f.Key()
			cand := rel.NewInstance()
			for _, g := range cur.Facts() {
				if g.Key() == fk {
					continue
				}
				cand.AddFact(g)
			}
			if s.IsSolution(i, j, cand) {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}
