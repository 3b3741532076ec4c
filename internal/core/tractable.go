package core

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/par"
	"repro/internal/rel"
)

// TractableTrace records the intermediate artifacts of the
// ExistsSolution algorithm of Figure 3, for inspection, testing, and the
// block-size experiment of Theorem 6.
type TractableTrace struct {
	// JCan is the canonical target instance: the target part of the
	// chase of (I, J) with Σst.
	JCan *rel.Instance
	// ICan is the canonical source instance: the source part of the
	// chase of (JCan, ∅) with Σts.
	ICan *rel.Instance
	// Blocks is the number of blocks of ICan.
	Blocks int
	// MaxBlockNulls is the largest number of nulls in any block of ICan;
	// Theorem 6 bounds it by a constant for settings in C_tract.
	MaxBlockNulls int
	// FailedBlock is the index of the first block with no homomorphism
	// into I, or -1 if all blocks mapped.
	FailedBlock int
	// StepsST and StepsTS count the chase steps of the two phases.
	StepsST, StepsTS int
	// BlockList is the block decomposition of ICan, computed eagerly by
	// ChaseCanonicalTractable so cached traces skip it on the warm
	// path. The blocks reference ICan's frozen tuples and are read-only.
	BlockList []hom.Block
	// STResult and TSResult are the full chase results of the two
	// phases, retained so a cached trace can be resumed after an
	// instance append (chase.Resume).
	STResult, TSResult *chase.Result
	// NullState is the null source's high-water mark after both chase
	// phases; resumed chases continue from it so appended runs never
	// collide with the trace's existing nulls.
	NullState int
}

// TractableOptions configures ExistsSolutionTractable. The embedded
// execution config reaches both chase phases and the per-block
// homomorphism checks: a canceled Ctx stops work promptly with an error
// wrapping ErrCanceled.
type TractableOptions struct {
	par.Config
	// SkipCondition1Check runs the algorithm even when condition 1 of
	// C_tract fails. The answer may then be incorrect (Theorem 5 needs
	// condition 1); used only by tests demonstrating exactly that.
	SkipCondition1Check bool
}

// ExistsSolutionTractable implements the algorithm of Figure 3 of the
// paper: chase (I, J) with Σst to obtain J_can, chase (J_can, ∅) with
// Σts to obtain I_can, and accept iff every block of I_can has a
// homomorphism into I.
//
// Correctness requires condition 1 of C_tract (Theorem 5) and Σt = ∅;
// polynomial running time additionally requires condition 2 (Theorems 4
// and 6). It is ChaseCanonicalTractable followed by
// ExistsSolutionTractableFrom, so it refuses the settings the former
// refuses.
func ExistsSolutionTractable(s *Setting, i, j *rel.Instance, opts TractableOptions) (bool, *TractableTrace, error) {
	trace, err := ChaseCanonicalTractable(s, i, j, opts)
	if err != nil {
		return false, nil, err
	}
	return ExistsSolutionTractableFrom(i, trace, opts)
}

// ChaseCanonicalTractable runs the two chase phases of Figure 3 and the
// block decomposition of I_can, returning a trace ready for repeated
// ExistsSolutionTractableFrom calls against different (or identical)
// source instances. Phase 1 is ChaseCanonicalTarget: with Σt = ∅ its
// J_can is exactly Figure 3's. It refuses settings with target
// constraints or disjunctive target-to-source dependencies, and —
// unless SkipCondition1Check is set — settings violating condition 1.
// The trace's instances are frozen and its block list is read-only, so
// the trace may be shared concurrently.
func ChaseCanonicalTractable(s *Setting, i, j *rel.Instance, opts TractableOptions) (*TractableTrace, error) {
	if len(s.T) > 0 {
		return nil, fmt.Errorf("core: ExistsSolutionTractable: setting %s has target constraints", s.Name)
	}
	if len(s.TSDisj) > 0 {
		return nil, fmt.Errorf("core: ExistsSolutionTractable: setting %s has disjunctive Σts", s.Name)
	}
	if !opts.SkipCondition1Check {
		if rep := dep.ClassifyCtract(s.ST, s.TS, nil); !rep.Cond1 {
			return nil, fmt.Errorf("core: ExistsSolutionTractable: setting %s violates condition 1 of C_tract; the algorithm would be unsound: %s", s.Name, rep.Summary())
		}
	}
	ct, err := ChaseCanonicalTarget(s, i, j, SolveOptions{Config: opts.Config})
	if err != nil {
		return nil, err
	}
	// Phase 2: (J_can, I_can) := chase of (J_can, ∅) with Σts, drawing
	// nulls after the ones phase 1 drew.
	nulls := &rel.NullSource{}
	nulls.SetState(ct.NullState)
	res, err := chase.Run(ct.JCan, s.TsDeps(), chase.Options{Config: opts.Config, Nulls: nulls})
	if err != nil {
		return nil, fmt.Errorf("core: chasing Σts: %w", err)
	}
	return newTractableTrace(s, ct, res, nulls), nil
}

// newTractableTrace packages a trace from its canonical target (phase
// 1) and the Σts chase of the target's J_can (phase 2). It freezes the
// Σts result and I_can — a cached trace is shared by concurrent solves
// and concurrent resumes, so none of it may be mutated again — and
// computes the block decomposition.
func newTractableTrace(s *Setting, ct *CanonicalTarget, ts *chase.Result, nulls *rel.NullSource) *TractableTrace {
	ican := ts.Instance.Restrict(s.Source)
	ican.Freeze()
	ts.Freeze()
	trace := &TractableTrace{
		JCan:      ct.JCan,
		ICan:      ican,
		StepsST:   ct.STResult.Steps,
		StepsTS:   ts.Steps,
		STResult:  ct.STResult,
		TSResult:  ts,
		NullState: nulls.State(),
	}
	trace.FillBlocks()
	return trace
}

// ExistsSolutionTractableFrom runs the verdict phase of the Figure 3
// algorithm against a precomputed trace: the per-block homomorphism
// checks of I_can into i. The input trace is not mutated — the returned
// trace is a copy with the per-run fields (FailedBlock) filled in — so
// a cached trace may serve concurrent solves.
func ExistsSolutionTractableFrom(i *rel.Instance, trace *TractableTrace, opts TractableOptions) (bool, *TractableTrace, error) {
	t := *trace
	trace = &t
	trace.FailedBlock = -1

	// The per-block checks scan left to right, memoized on the canonical
	// block signature, and report the first failing block (see
	// hom.CheckBlocks). By Proposition 1 this agrees with one
	// homomorphism search of the whole I_can.
	idx := hom.CheckBlocks(trace.BlockList, i, opts.Config)
	if err := canceled(opts.Ctx, "tractable algorithm"); err != nil {
		return false, trace, err // a canceled CheckBlocks index is meaningless
	}
	if idx >= 0 {
		trace.FailedBlock = idx
		return false, trace, nil
	}
	return true, trace, nil
}

// FillBlocks computes the block decomposition of ICan and the derived
// statistics. It runs eagerly so the decomposition is part of the
// cacheable chase work, not the per-solve verdict phase; snapshot
// decoding calls it to rebuild the derived fields a stored trace omits.
func (t *TractableTrace) FillBlocks() {
	t.BlockList = hom.Blocks(t.ICan)
	t.Blocks = len(t.BlockList)
	t.MaxBlockNulls = 0
	for _, b := range t.BlockList {
		if len(b.Nulls) > t.MaxBlockNulls {
			t.MaxBlockNulls = len(b.Nulls)
		}
	}
}

// FindSolutionTractable runs the Figure 3 algorithm and, on acceptance,
// constructs the witness solution J_img of the Theorem 5 proof: it finds
// a homomorphism h from I_can to I, extends it to h_J (identity outside
// Dom(I_can)), and returns h_J(J_can).
func FindSolutionTractable(s *Setting, i, j *rel.Instance, opts TractableOptions) (*rel.Instance, *TractableTrace, error) {
	trace, err := ChaseCanonicalTractable(s, i, j, opts)
	if err != nil {
		return nil, nil, err
	}
	return FindSolutionTractableFrom(i, trace, opts)
}

// FindSolutionTractableFrom is FindSolutionTractable over a precomputed
// trace (see ChaseCanonicalTractable). The input trace is not mutated.
func FindSolutionTractableFrom(i *rel.Instance, trace *TractableTrace, opts TractableOptions) (*rel.Instance, *TractableTrace, error) {
	ok, trace, err := ExistsSolutionTractableFrom(i, trace, opts)
	if err != nil {
		return nil, trace, err
	}
	if !ok {
		return nil, trace, nil
	}
	h, found := hom.FindInstanceHom(trace.ICan, i, opts.Config)
	if err := canceled(opts.Ctx, "tractable algorithm"); err != nil {
		return nil, trace, err
	}
	if !found {
		// Cannot happen: ExistsSolutionTractable accepted.
		return nil, trace, fmt.Errorf("core: internal inconsistency: accepted but no homomorphism from I_can to I")
	}
	// h_J: apply h on the shared nulls, identity elsewhere. MapValues
	// ignores values absent from the map, which is exactly the identity
	// default.
	jimg := trace.JCan.MapValues(h)
	return jimg, trace, nil
}
