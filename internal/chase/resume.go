package chase

// Resuming a finished chase after new facts arrive. The append-only
// watermark invariant (the old prefix of every relation is immutable
// except for in-place merge rewrites, which the change log records)
// means a finished restricted chase can continue from its own fixpoint:
// every trigger whose body facts predate the fixpoint was satisfied
// when the run ended and stays satisfied under further additions, so
// only triggers touching the appended facts need enumeration.
//
// With the union-find egd engine this extends to key-shaped egds
// (dep.EGD.KeyShaped): the fixpoint satisfies every egd, so the egd
// detection passes over old facts alone are clean, and the previous
// run's merge history is retained as Result.UnionFind — appended facts
// are canonicalized through it before landing, so a fact mentioning a
// merged-away null joins the class its survivor represents. The
// continuation then runs the ordinary chase with pre-seeded watermarks;
// any new merges it performs rewrite old tuples in place and re-enter
// them through the change log, exactly as in a cold run. Whenever that
// reasoning does not apply — a non-key egd is present, the previous
// result merged values but carries no union-find, or the run failed —
// Resume falls back to a full re-chase from the previous run's true
// start united with the appended facts.

import (
	"fmt"

	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// Fallback reasons reported by FallbackReason; the empty string means
// the incremental path is sound. Servers aggregate these as metric
// labels, so the strings are part of the observable surface.
const (
	// FallbackNone: resumable, no fallback.
	FallbackNone = ""
	// FallbackNoPrev: no previous result (or no retained fixpoint) to
	// resume from.
	FallbackNoPrev = "no-previous-result"
	// FallbackFailed: the previous run failed; there is no fixpoint.
	FallbackFailed = "failed"
	// FallbackEgd: an egd blocks the incremental path — a non-key-shaped
	// egd is present, or the previous result merged values but carries
	// no union-find (a hand-built or decoded result that lost it).
	FallbackEgd = "egd"
	// FallbackUnsupported: the dependency set contains kinds the chase
	// cannot resume (disjunctive tgds).
	FallbackUnsupported = "unsupported"
)

// FallbackReason explains why a previous chase result cannot be resumed
// incrementally for the given dependencies, or returns FallbackNone ("")
// when it can. The non-empty reasons are the Fallback* constants; when
// several apply the most fundamental wins (no previous result, then
// failure, then dependency shape).
func FallbackReason(prev *Result, deps []dep.Dependency) string {
	if prev == nil || prev.Instance == nil {
		return FallbackNoPrev
	}
	if prev.Failed {
		return FallbackFailed
	}
	if prev.EgdFired && prev.UnionFind == nil {
		return FallbackEgd
	}
	for _, d := range deps {
		switch d := d.(type) {
		case dep.TGD:
		case dep.EGD:
			if !d.KeyShaped() {
				return FallbackEgd
			}
		default:
			return FallbackUnsupported
		}
	}
	return FallbackNone
}

// Resumable reports whether a previous chase result can be resumed
// incrementally for the given dependencies. It requires a successful
// chase fixpoint over tgds and key-shaped egds (dep.EGD.KeyShaped), with
// the previous run's union-find retained whenever it merged values.
// FallbackReason names the blocking condition when this returns false.
func Resumable(prev *Result, deps []dep.Dependency) bool {
	return FallbackReason(prev, deps) == FallbackNone
}

// Resume continues a finished chase after appending the facts of
// appended to its start. When the incremental path is sound (see
// Resumable) it seeds every dependency's delta watermark with the
// previous fixpoint's tuple counts — so the first round enumerates only
// triggers touching the appended facts — and canonicalizes each
// appended fact through the previous run's union-find before adding it;
// otherwise it re-chases from Union(prev.Start, appended). The returned
// bool reports which path ran. The facts of prev's instances and of
// appended are not changed, but Resume clones and unites them, which
// counts as a write to any of them left unfrozen (see rel.Instance);
// the result's Steps and Merges count only this run.
// The resumed fixpoint is a chase result of Union(prev.Start, appended):
// the previous sequence replayed on the enlarged start reaches the
// fixpoint plus the canonicalized appended facts (the old merges
// substitute through the appended facts exactly as Find does), and
// continuing a terminated chase with more facts is itself a valid chase
// sequence of the enlarged start.
func Resume(prev *Result, deps []dep.Dependency, appended *rel.Instance, opts Options) (*Result, bool, error) {
	for _, d := range deps {
		if _, ok := d.(dep.DisjunctiveTGD); ok {
			return nil, false, fmt.Errorf("chase: cannot chase disjunctive tgd %s", d.DepLabel())
		}
	}
	if prev == nil || prev.Start == nil {
		return nil, false, fmt.Errorf("chase: cannot resume a result without its start instance")
	}
	start := rel.Union(prev.Start, appended)
	if !Resumable(prev, deps) {
		res, err := Run(start, deps, opts)
		return res, false, err
	}
	inst := prev.Instance.Clone()
	// The seed watermark is the fixpoint's counts, snapshotted before
	// the appended facts land: every dependency "has already seen" the
	// old prefix — tgd triggers over it are satisfied, egd passes over
	// it are clean — and the change log starts empty (logPos 0).
	seed := hom.Delta(inst.TupleCounts())
	uf := prev.UnionFind.Clone()
	for _, f := range appended.Facts() {
		t := f.Args.Clone()
		if uf != nil {
			for i, v := range t {
				t[i] = uf.Find(v)
			}
		}
		inst.AddOwnedTuple(f.Rel, t)
	}
	nulls := opts.nulls(inst)
	if uf != nil {
		// Nulls merged away by the previous run no longer occur in the
		// fixpoint; their labels must stay retired or Find would identify
		// a fresh null with an old class.
		nulls.Seen(uf.MaxNullID())
	}
	st := &state{
		inst:     inst,
		start:    start,
		opts:     opts,
		nulls:    nulls,
		budget:   opts.maxSteps(),
		egdFired: prev.EgdFired,
		uf:       uf,
		marks:    make([]mark, len(deps)),
	}
	for i := range st.marks {
		st.marks[i] = mark{counts: seed}
	}
	res, err := st.run(deps, nil)
	return res, true, err
}
