package hom

import (
	"sort"

	"repro/internal/dep"
	"repro/internal/rel"
)

// Delta is a per-relation watermark splitting an instance into an old
// and a new (delta) segment: delta[R] is the number of tuples of R that
// are old — the prefix of R's tuple list, since instances append new
// tuples at the end. Relations absent from the map have no old tuples,
// i.e. every tuple counts as new. A nil Delta means "no watermark": the
// delta-constrained entry points then degrade to full enumeration.
//
// The chase maintains one Delta per dependency, recording the instance
// sizes at the dependency's previous trigger collection. Equality
// merges (egd steps) rewrite tuples in place without shuffling indexes
// (rel.Instance.MergeValue), so counts stay valid across merges; the
// rewritten old tuples are carried separately as the Changed lists of a
// DeltaSpec, so a watermark is never invalidated.
type Delta map[string]int

// Names returns the watermark's relation names in sorted order — the
// deterministic iteration the codec and the exposition paths need when
// walking a Delta.
func (d Delta) Names() []string {
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DeltaSpec is the full semi-naive watermark: the per-relation counts
// splitting each relation into old and new segments, plus the
// merged-value delta — for each relation, the sorted indexes of old
// tuples whose content was rewritten by egd merges since the counts
// were taken. A binding is "new" if it touches a new tuple or a changed
// one; bindings over unchanged old tuples were either fired or
// satisfied when the watermark was taken, and both properties survive
// merges (substitution maps satisfied instances onto satisfied
// instances).
//
// Changed lists must hold live (non-tombstoned) indexes strictly below
// the corresponding Old count; a nil Old requests full enumeration
// regardless of Changed.
type DeltaSpec struct {
	Old     Delta
	Changed map[string][]int
}

// oldCount returns the old-segment length for the relation, clamped to
// the relation's current size (a stale watermark must never make the
// delta segment negative).
func (d Delta) oldCount(r *rel.Relation) int {
	n := d[r.Name()]
	if l := r.Len(); n > l {
		return l
	}
	return n
}

// EnumerateDeltaSpec streams the homomorphisms from the conjunction of
// atoms into the instance extending init that use at least one new
// tuple (past the spec.Old watermark) or one changed (merge-rewritten)
// tuple listed in spec.Changed, each exactly once and in ForEach's
// order. fn gets each binding live — search state it must neither
// retain nor mutate (Clone to keep one) — and returns false to stop.
// EnumerateDeltaSpec reports whether the enumeration ran to
// completion. Bindings whose atoms all match unchanged old tuples are
// skipped without being enumerated — the caller guarantees it has
// already processed them (this is the chase's invariant: a trigger over
// facts it has seen was satisfied by the end of that collection's
// firing pass, and merges report the tuples they rewrite through
// Changed).
//
// A zero spec (nil Old) requests the full enumeration, so does an
// all-zero Old (the first chase round seeds the delta with the whole
// instance). This is the trigger search of the chase, for tgds and
// egds alike.
//
// The enumeration is one backtracking search in ForEach's join order
// (see searcher.pending): every candidate list is ascending, so the
// stream is the full enumeration restricted to the delta-touching
// bindings.
func EnumerateDeltaSpec(atoms []dep.Atom, inst *rel.Instance, init Binding, spec DeltaSpec, opts Options, fn func(Binding) bool) bool {
	if len(atoms) == 0 {
		if spec.Old != nil {
			// An empty body has a single (empty) trigger, independent of
			// any facts; it was handled when the watermark was taken.
			return true
		}
		b := init
		if b == nil {
			b = Binding{}
		}
		return fn(b)
	}
	hasNew := false
	for _, a := range atoms {
		r := inst.Relation(a.Rel)
		if r == nil || r.Len() == 0 {
			return true // an empty body relation admits no homomorphism at all
		}
		if spec.Old == nil || spec.Old.oldCount(r) < r.Len() || len(spec.Changed[a.Rel]) > 0 {
			hasNew = true
		}
	}
	if !hasNew {
		return true
	}

	base := Binding{}
	for k, v := range init {
		base[k] = v
	}
	order := orderAtoms(atoms, base)
	s := newSearcher(inst, opts, false, fn)
	defer s.release()
	if spec.Old != nil {
		// hasNew guarantees some depth sets last.
		for i, a := range order {
			r := inst.Relation(a.Rel)
			d := depthDelta{old: spec.Old.oldCount(r), changed: spec.Changed[a.Rel]}
			if d.old < r.Len() || len(d.changed) > 0 {
				s.last = i
			}
			s.delta = append(s.delta, d)
		}
		s.pending = true
	}
	return s.match(order, 0, base)
}

// depthDelta is the semi-naive watermark of one depth of the join
// order: the old-segment length of the atom's relation and the sorted
// changed indexes below it.
type depthDelta struct {
	old     int
	changed []int
}

// touches reports whether tuple idx is new or changed.
func (d depthDelta) touches(idx int) bool {
	if idx >= d.old {
		return true
	}
	at := sort.SearchInts(d.changed, idx)
	return at < len(d.changed) && d.changed[at] == idx
}
