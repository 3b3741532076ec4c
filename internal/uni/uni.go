// Package uni implements the data-exchange substrate the peer data
// exchange paper builds on: canonical universal solutions (Fagin,
// Kolaitis, Miller, Popa — "Data exchange: semantics and query
// answering") and cores of instances with labeled nulls (Fagin,
// Kolaitis, Popa — "Data exchange: getting to the core").
//
// In the data-exchange fragment of a PDE setting (Σts = ∅), the chase
// of (I, J) with Σst ∪ Σt yields a canonical universal solution: it has
// a homomorphism into every solution, certain answers of unions of
// conjunctive queries are its null-free answers, and its core is the
// smallest universal solution. The peer data exchange paper re-uses all
// three facts (Lemmas 1–4), which is why this package exists as a
// separately tested substrate.
package uni

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/hom"
	"repro/internal/rel"
)

// CanonicalResult reports a canonical-universal-solution computation.
type CanonicalResult struct {
	// Solution is the canonical universal solution (target instance,
	// possibly with labeled nulls), or nil when the chase failed.
	Solution *rel.Instance
	// Failed reports a failing chase (an egd equated two constants): no
	// solution exists.
	Failed bool
	// Steps counts chase steps.
	Steps int
}

// CanonicalSolution computes the canonical universal solution of the
// data-exchange fragment of the setting: the chase of (I, J) with
// Σst ∪ Σt. The setting's Σts is ignored — callers wanting full PDE
// semantics use core.ExistsSolutionGeneric instead. An error is
// returned when the chase exhausts its budget (possible only without
// weak acyclicity) or when the setting is invalid.
func CanonicalSolution(s *core.Setting, i, j *rel.Instance, opts chase.Options) (*CanonicalResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	deps := s.StDeps()
	deps = append(deps, s.T...)
	res, err := chase.Run(rel.Union(i, j), deps, opts)
	if err != nil {
		return nil, fmt.Errorf("uni: chasing Σst ∪ Σt: %w", err)
	}
	if res.Failed {
		return &CanonicalResult{Failed: true, Steps: res.Steps}, nil
	}
	return &CanonicalResult{Solution: res.Instance.Restrict(s.Target), Steps: res.Steps}, nil
}

// Core computes the core of an instance with labeled nulls: the
// smallest retract, i.e. the image of an idempotent endomorphism that
// is the identity on constants, unique up to isomorphism.
//
// Algorithm (blockwise, after Fagin-Kolaitis-Popa): because the blocks
// of the instance share no nulls, every endomorphism decomposes into
// independent per-block homomorphisms; the instance is a core iff no
// single block admits a homomorphism into the whole instance whose
// induced image is strictly smaller. We repeatedly search such a
// shrinking block homomorphism and apply it until none exists. Each
// application strictly reduces the fact count, so the loop terminates;
// each search is exponential only in the block size (constant for
// chase results of C_tract settings, Theorem 6).
func Core(k *rel.Instance, opts hom.Options) *rel.Instance {
	cur := k.Clone()
	for {
		// The shrink fixpoint is unbounded in the instance size, so it
		// must poll like every other hot loop. As with the hom searches
		// it wraps, a canceled run returns the instance shrunk so far,
		// which need not be the core: callers that set opts.Ctx MUST
		// check Ctx.Err() afterwards and discard the result when non-nil.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return cur
		}
		shrunk := false
		for _, block := range hom.Blocks(cur) {
			if len(block.Nulls) == 0 {
				continue // ground facts are fixed by every endomorphism
			}
			next, ok := shrinkBlock(cur, block, opts)
			if ok {
				cur = next
				shrunk = true
				break // blocks changed; recompute
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// shrinkBlock searches a homomorphism h from the block into the whole
// instance such that (K \ B) ∪ h(B) has strictly fewer facts than K.
func shrinkBlock(k *rel.Instance, block hom.Block, opts hom.Options) (*rel.Instance, bool) {
	inBlock := make(map[rel.FactKey]bool, len(block.Facts))
	for _, f := range block.Facts {
		inBlock[f.Key()] = true
	}
	var result *rel.Instance
	block.Compile().ForEach(k, make([]rel.Value, len(block.Nulls)), opts, func(vals []rel.Value) bool {
		// Build the candidate image of the block under this binding.
		img := rel.NewInstance()
		for _, f := range block.Facts {
			img.AddFact(applyBinding(f, block, vals))
		}
		// Candidate instance: everything outside the block, plus the
		// image.
		cand := rel.NewInstance()
		for _, f := range k.Facts() {
			if !inBlock[f.Key()] {
				cand.AddFact(f)
			}
		}
		cand.AddAll(img)
		if cand.NumFacts() < k.NumFacts() {
			result = cand
			return false
		}
		return true
	})
	return result, result != nil
}

// applyBinding maps the nulls of a fact of block to their values in the
// slot vector of the block's compiled conjunction.
func applyBinding(f rel.Fact, block hom.Block, vals []rel.Value) rel.Fact {
	t := f.Args.Clone()
	for idx, v := range t {
		if v.IsNull() {
			t[idx] = vals[block.Slot(v)]
		}
	}
	return rel.Fact{Rel: f.Rel, Args: t}
}

// IsCore reports whether the instance equals its core.
func IsCore(k *rel.Instance, opts hom.Options) bool {
	return Core(k, opts).NumFacts() == k.NumFacts()
}

// HomEquivalent reports whether there are homomorphisms in both
// directions between the two instances (identity on constants). Cores
// of hom-equivalent instances are isomorphic.
func HomEquivalent(a, b *rel.Instance, opts hom.Options) bool {
	return hom.InstanceHomExists(a, b, opts) && hom.InstanceHomExists(b, a, opts)
}

// CertainAnswers computes the certain answers of a union of conjunctive
// queries in the data-exchange fragment (Σts must be empty): by the
// classic result of Fagin et al., they are exactly the null-free
// answers of q on any universal solution — here the canonical one. This
// is the polynomial-time evaluation the paper contrasts with the
// coNP-complete PDE case; the tests cross-validate it against the
// enumeration-based evaluator of package certain.
func CertainAnswers(s *core.Setting, i, j *rel.Instance, eval func(*rel.Instance) []rel.Tuple, opts chase.Options) ([]rel.Tuple, bool, error) {
	if len(s.TS) > 0 || len(s.TSDisj) > 0 {
		return nil, false, fmt.Errorf("uni: CertainAnswers requires Σts = ∅ (the data-exchange fragment); got %d target-to-source dependencies", len(s.TS)+len(s.TSDisj))
	}
	res, err := CanonicalSolution(s, i, j, opts)
	if err != nil {
		return nil, false, err
	}
	if res.Failed {
		// No solutions: every tuple is vacuously certain; callers treat
		// the false flag as "no solution exists".
		return nil, false, nil
	}
	var out []rel.Tuple
	for _, t := range eval(res.Solution) {
		ground := true
		for _, v := range t {
			if v.IsNull() {
				ground = false
				break
			}
		}
		if ground {
			out = append(out, t)
		}
	}
	return out, true, nil
}
