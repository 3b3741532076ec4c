// Package repair implements an alternative semantics for peer data
// exchange when no solution exists, in the spirit the paper's
// conclusion sketches (citing Bertossi and Bravo's repair-based
// semantics): the source peer is authoritative and immutable, so the
// only repairable data is the target peer's own instance J. A *repair*
// is a maximal subset J” ⊆ J such that (I, J”) admits a solution;
// query answers are those certain in every solution of every repair.
//
// This semantics degrades gracefully: when (I, J) itself has a
// solution, J is the unique repair and the semantics coincides with the
// paper's certain answers. When even (I, ∅) has no solution — the
// source's offerings themselves violate the target's restrictions — no
// repair exists and answers are vacuously certain, mirroring the
// paper's convention for empty solution spaces.
//
// Complexity: the paper notes the repair-based semantics is
// Π₂ᵖ-complete, one level above the coNP-complete certain answers; the
// implementation is accordingly exponential in |J| (subset enumeration)
// on top of the solution search, and is intended for the small target
// instances of the experiments.
package repair

import (
	"fmt"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/rel"
)

// Options configures repair computations.
type Options struct {
	// Solve configures the underlying solution searches.
	Solve core.SolveOptions
	// MaxTargetFacts caps |J| to keep the subset enumeration honest;
	// 0 means the default of 20.
	MaxTargetFacts int
}

func (o Options) maxTargetFacts() int {
	if o.MaxTargetFacts > 0 {
		return o.MaxTargetFacts
	}
	return 20
}

// Result reports a repair computation.
type Result struct {
	// Repairs are the maximal solvable subsets of J, each paired with
	// one witness solution. Empty when even (I, ∅) has no solution.
	Repairs []Repair
	// Intact reports that J itself is solvable, making it the unique
	// repair (the semantics then coincides with plain certain answers).
	Intact bool
}

// Repair is one maximal solvable subset of the target instance.
type Repair struct {
	// Target is the repaired target instance J'' ⊆ J.
	Target *rel.Instance
	// Witness is one solution for (I, Target).
	Witness *rel.Instance
	// Removed counts the facts of J deleted by the repair.
	Removed int
}

// Repairs computes all maximal subsets J” ⊆ J for which (I, J”) has a
// solution.
func Repairs(s *core.Setting, i, j *rel.Instance, opts Options) (*Result, error) {
	facts := j.Facts()
	if len(facts) > opts.maxTargetFacts() {
		return nil, fmt.Errorf("repair: target instance has %d facts, cap is %d (raise Options.MaxTargetFacts deliberately)", len(facts), opts.maxTargetFacts())
	}
	n := len(facts)
	res := &Result{}

	// Enumerate subsets by descending size (combinations per size via
	// Gosper's hack), so maximality checks only need to look at
	// already-accepted repairs: a solvable subset not contained in an
	// accepted repair is maximal, because all of its strict supersets
	// were already processed and found unsolvable or dominated.
	accepted := make([]uint64, 0, 4)
	for size := n; size >= 0; size-- {
		for mask := range combinations(n, size) {
			dominated := false
			for _, big := range accepted {
				if big&mask == mask {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			sub := rel.NewInstance()
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					sub.AddFact(facts[b])
				}
			}
			ok, witness, _, err := core.ExistsSolutionGeneric(s, i, sub, opts.Solve)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			accepted = append(accepted, mask)
			res.Repairs = append(res.Repairs, Repair{Target: sub, Witness: witness, Removed: n - size})
			if size == n {
				res.Intact = true
			}
		}
	}
	return res, nil
}

// combinations yields every n-bit mask with exactly k bits set, in
// increasing numeric order (Gosper's hack).
func combinations(n, k int) func(func(uint64) bool) {
	return func(yield func(uint64) bool) {
		if k == 0 {
			yield(0)
			return
		}
		if k > n {
			return
		}
		mask := uint64(1)<<k - 1
		limit := uint64(1) << n
		for mask < limit {
			if !yield(mask) {
				return
			}
			// Gosper: next mask with the same popcount.
			c := mask & (^mask + 1)
			r := mask + c
			mask = (((r ^ mask) >> 2) / c) | r
		}
	}
}

// CertainBool computes the repair-based certain answer of a Boolean
// union of conjunctive queries: true iff q holds in every solution of
// every repair. hasRepair reports whether any repair exists; when it is
// false the verdict is vacuously true.
func CertainBool(s *core.Setting, i, j *rel.Instance, q certain.UCQ, opts Options) (bool, bool, error) {
	reps, err := Repairs(s, i, j, opts)
	if err != nil {
		return false, false, err
	}
	for _, r := range reps.Repairs {
		res, err := certain.Boolean(s, i, r.Target, q, certain.Options{Solve: opts.Solve})
		if err != nil {
			return false, true, err
		}
		if !res.Certain {
			return false, true, nil
		}
	}
	return true, len(reps.Repairs) > 0, nil
}

// CertainAnswers computes the repair-based certain answers of an open
// union of conjunctive queries: the tuples certain in every repair.
func CertainAnswers(s *core.Setting, i, j *rel.Instance, q certain.UCQ, opts Options) ([]rel.Tuple, bool, error) {
	reps, err := Repairs(s, i, j, opts)
	if err != nil {
		return nil, false, err
	}
	if len(reps.Repairs) == 0 {
		return nil, false, nil
	}
	var inter map[rel.TupleKey]rel.Tuple
	for _, r := range reps.Repairs {
		res, err := certain.Answers(s, i, r.Target, q, certain.Options{Solve: opts.Solve})
		if err != nil {
			return nil, true, err
		}
		cur := make(map[rel.TupleKey]rel.Tuple, len(res.Answers))
		for _, t := range res.Answers {
			cur[rel.KeyOf(t)] = t
		}
		if inter == nil {
			inter = cur
			continue
		}
		for k := range inter {
			if _, ok := cur[k]; !ok {
				delete(inter, k)
			}
		}
	}
	out := make([]rel.Tuple, 0, len(inter))
	for _, t := range inter {
		out = append(out, t)
	}
	certain.SortAnswers(out)
	return out, true, nil
}
