package core

// Resuming cached chase state after an instance append. The Σst phase
// both artifacts share is resumed in one place, ResumeCanonicalTarget:
// the Σst chase continues with the appended facts as its delta, and the
// downstream phase (Σt there, Σts in ResumeCanonicalTractable, which
// resumes the trace's canonical target first) continues with the facts
// of the new J_can its previous start lacks (newFacts) — Σst is pure
// tgds, so the old J_can is a prefix of the new one and those are
// exactly the facts Σst added. Null labels continue from the stored
// NullState, so a resumed artifact never collides with the labels it
// already contains. The returned bool reports whether every phase took
// the incremental path; a false still returns a correct artifact (the
// fallback phases re-chased from their true starts), and the returned
// reason string — one of the chase.Fallback* constants — names the
// first blocking condition, for the server's cache metrics.

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/rel"
)

// ResumeCanonicalTractable continues a ChaseCanonicalTractable trace
// after appending facts to the source/target instances it was chased
// from: ResumeCanonicalTarget resumes its Σst phase, then Σts resumes
// from the facts that phase added. The input trace is not mutated; the
// returned trace is a fresh artifact ready for
// ExistsSolutionTractableFrom. Both phases are pure tgds for any
// setting the tractable algorithm accepts, so the incremental path
// always applies and the bool is true (reason "") unless a previous
// result was unexpectedly non-resumable.
func ResumeCanonicalTractable(s *Setting, trace *TractableTrace, appended *rel.Instance, opts TractableOptions) (*TractableTrace, bool, string, error) {
	if trace == nil || trace.STResult == nil || trace.TSResult == nil {
		return nil, false, chase.FallbackNoPrev, fmt.Errorf("core: cannot resume a tractable trace without its chase results")
	}
	prev := &CanonicalTarget{STResult: trace.STResult, NullState: trace.NullState}
	ct, resumed, reason, err := ResumeCanonicalTarget(s, prev, appended, SolveOptions{Config: opts.Config})
	if err != nil {
		return nil, false, reason, err
	}
	nulls := &rel.NullSource{}
	nulls.SetState(ct.NullState)
	res, r, err := chase.Resume(trace.TSResult, s.TsDeps(), newFacts(ct.JCan, trace.TSResult), chase.Options{Config: opts.Config, Nulls: nulls})
	if err != nil {
		return nil, false, chase.FallbackNone, fmt.Errorf("core: resuming Σts: %w", err)
	}
	if !r && reason == chase.FallbackNone {
		reason = chase.FallbackReason(trace.TSResult, s.TsDeps())
	}
	return newTractableTrace(s, ct, res, nulls), resumed && r, reason, nil
}

// ResumeCanonicalTarget continues a ChaseCanonicalTarget after
// appending facts. Σst is always pure tgds and resumes incrementally;
// the Σt phase resumes when its egds are all key-shaped and the
// previous run retained its merge state (see chase.Resumable) —
// otherwise chase.Resume transparently re-chases the new J_can from
// scratch, which also revalidates a previously failing Σt chase. The
// input is not mutated. The reason string names the first blocking
// condition when the bool is false.
func ResumeCanonicalTarget(s *Setting, ct *CanonicalTarget, appended *rel.Instance, opts SolveOptions) (*CanonicalTarget, bool, string, error) {
	if ct == nil || ct.STResult == nil {
		return nil, false, chase.FallbackNoPrev, fmt.Errorf("core: cannot resume a canonical target without its chase results")
	}
	ns := &rel.NullSource{}
	ns.SetState(ct.NullState)
	copts := chase.Options{Config: opts.Config, Nulls: ns}

	res, r1, err := chase.Resume(ct.STResult, s.StDeps(), appended, copts)
	if err != nil {
		return nil, false, chase.FallbackNone, fmt.Errorf("core: resuming Σst: %w", err)
	}
	reason := chase.FallbackNone
	if !r1 {
		reason = chase.FallbackReason(ct.STResult, s.StDeps())
	}
	next := &CanonicalTarget{STResult: res}
	jcan := res.Instance.Restrict(s.Target)
	res.Freeze()
	resumed := r1

	if len(s.T) > 0 {
		tres, r2, err := chase.Resume(ct.TResult, s.T, newFacts(jcan, ct.TResult), copts)
		if err != nil {
			return nil, false, chase.FallbackNone, fmt.Errorf("core: resuming Σt: %w", err)
		}
		if !r2 && reason == chase.FallbackNone {
			reason = chase.FallbackReason(ct.TResult, s.T)
		}
		resumed = resumed && r2
		tres.Freeze()
		next.TResult = tres
		if tres.Failed {
			next.TFailed = true
			next.NullState = ns.State()
			return next, resumed, reason, nil
		}
		jcan = tres.Instance
	}
	jcan.Freeze()
	next.JCan = jcan
	next.NullState = ns.State()
	return next, resumed, reason, nil
}

// newFacts returns the facts of jcan that the previous run's start
// lacks: the delta a downstream phase resumes from. chase.Resume would
// discard the rest anyway — it unites its start with the appended
// facts, and every fact of the previous start is already in the
// previous fixpoint (up to the retained merges) — so the resumed start
// and fixpoint are the same as for the whole of jcan, minus the work of
// re-adding the old facts. The returned instance shares jcan's tuples,
// which are immutable once stored. Without a previous start it returns
// jcan itself, for chase.Resume to reject.
func newFacts(jcan *rel.Instance, prev *chase.Result) *rel.Instance {
	if prev == nil || prev.Start == nil {
		return jcan
	}
	delta := rel.NewInstance()
	for _, name := range jcan.RelationNames() {
		r, old := jcan.Relation(name), prev.Start.Relation(name)
		for i := 0; i < r.Len(); i++ {
			if t := r.TupleAt(i); r.Live(i) && (old == nil || !old.Contains(t)) {
				delta.AddOwnedTuple(name, t)
			}
		}
	}
	return delta
}
