package pde

import (
	"repro/internal/chase"
	"repro/internal/hom"
	"repro/internal/rel"
	"repro/internal/repair"
	"repro/internal/uni"
)

// This file exposes the extensions built on top of the paper:
// data-exchange universal solutions and cores (the substrate of the
// paper's Lemmas 1–4, from Fagin et al.), and the repair-based
// alternative semantics the paper's conclusion points to.

// UniversalSolution computes the canonical universal solution of the
// data-exchange fragment of the setting (Σts is not allowed): the chase
// of (I, J) with Σst ∪ Σt. It returns nil with exists=false when the
// chase fails (a target egd equated two constants), meaning no solution
// exists.
func UniversalSolution(s *Setting, i, j *Instance) (sol *Instance, exists bool, err error) {
	res, err := uni.CanonicalSolution(s, i, j, chase.Options{})
	if err != nil {
		return nil, false, err
	}
	if res.Failed {
		return nil, false, nil
	}
	return res.Solution, true, nil
}

// Core computes the core of an instance with labeled nulls: its
// smallest retract, unique up to isomorphism. The core of a universal
// solution is the smallest universal solution.
func Core(inst *Instance) *Instance {
	return uni.Core(inst, hom.Options{})
}

// CertainAnswersDataExchange evaluates the certain answers of a union
// of conjunctive queries in the data-exchange fragment (Σts = ∅) in
// polynomial time, by naive evaluation on the canonical universal
// solution. This is the tractable contrast the paper draws with the
// coNP-complete PDE case.
func CertainAnswersDataExchange(s *Setting, i, j *Instance, q UCQ) (CertainResult, error) {
	if err := prepareCertain(s, i, j, q); err != nil {
		return CertainResult{}, err
	}
	// The context-free config: query evaluation never sees a canceled
	// search, so a spurious miss can never become an answer.
	answers, exists, err := uni.CertainAnswers(s, i, j, func(inst *rel.Instance) []rel.Tuple {
		return q.Eval(inst, hom.Options{})
	}, chase.Options{})
	if err != nil {
		return CertainResult{}, err
	}
	return CertainResult{SolutionExists: exists, Answers: answers}, nil
}

// RepairResult reports the repair-semantics computations.
type RepairResult struct {
	// Intact reports that J itself admits a solution (the unique repair
	// is J and the semantics coincides with plain certain answers).
	Intact bool
	// Repairs holds the maximal subsets of J that admit solutions, each
	// with one witness solution.
	Repairs []repair.Repair
}

// Repairs computes the maximal subsets J” of the target instance for
// which (I, J”) has a solution — the alternative semantics for
// unsolvable inputs sketched in the paper's conclusion. The target
// instance must be small (the enumeration is exponential in |J|).
func Repairs(s *Setting, i, j *Instance, opts ...Options) (RepairResult, error) {
	if err := s.Validate(); err != nil {
		return RepairResult{}, err
	}
	res, err := repair.Repairs(s, i, j, repair.Options{Solve: options(opts).solveOptions(nil)})
	if err != nil {
		return RepairResult{}, err
	}
	return RepairResult{Intact: res.Intact, Repairs: res.Repairs}, nil
}

// CertainUnderRepairs computes repair-based certain answers: tuples (or
// the Boolean verdict) certain in every solution of every repair.
func CertainUnderRepairs(s *Setting, i, j *Instance, q UCQ, opts ...Options) (CertainResult, error) {
	if err := prepareCertain(s, i, j, q); err != nil {
		return CertainResult{}, err
	}
	ropts := repair.Options{Solve: options(opts).solveOptions(nil)}
	if q[0].IsBoolean() {
		cert, hasRepair, err := repair.CertainBool(s, i, j, q, ropts)
		if err != nil {
			return CertainResult{}, err
		}
		return CertainResult{SolutionExists: hasRepair, Certain: cert}, nil
	}
	answers, hasRepair, err := repair.CertainAnswers(s, i, j, q, ropts)
	if err != nil {
		return CertainResult{}, err
	}
	return CertainResult{SolutionExists: hasRepair, Answers: answers}, nil
}
