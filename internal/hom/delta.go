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

// deltaHit pairs a collected binding with the tuple-index vector the
// search chose along the join order. Because every candidate list is
// scanned in ascending tuple order, the unconstrained enumeration emits
// bindings exactly in lexicographic vector order — sorting the
// per-slot results by vector therefore reproduces the order Enumerate
// (and ForEach) would produce.
type deltaHit struct {
	vec []int
	b   Binding
}

// deltaSlot is one pinned search of the semi-naive decomposition: atom
// `atom` of the join order restricted either to the new segment of its
// relation (changed == nil) or to the explicit changed-index list.
type deltaSlot struct {
	atom    int
	changed []int
}

// EnumerateDeltaSpec is the semi-naive counterpart of Enumerate: it
// returns every homomorphism from the atoms into the instance that uses
// at least one new tuple (past the spec.Old watermark) or one changed
// (merge-rewritten) tuple listed in spec.Changed, in exactly the
// relative order Enumerate produces them, and each such binding exactly
// once. Bindings whose atoms all match unchanged old tuples are skipped
// without being enumerated — the caller guarantees it has already
// processed them (this is the chase's invariant: a trigger over facts
// it has seen was satisfied by the end of that collection's firing
// pass, and merges report the tuples they rewrite through Changed).
//
// A nil spec.Old requests a full enumeration; so does an all-zero one
// (the first chase round seeds the delta with the whole instance). The
// keep filter follows the Enumerate contract.
//
// The decomposition generalizes the textbook one: for each position s
// in the join order, a count slot pins atom s to the delta segment,
// atoms before s to the old segment, and leaves atoms after s
// unconstrained; a changed slot pins atom s to the changed-index list
// instead. Count slots partition their bindings by the first join
// position that touches a new tuple, but a binding can combine changed
// tuples with new ones and so surface from several slots — the merged,
// vector-sorted result is deduplicated by vector (equal vectors denote
// the same binding). The merged result is re-sorted into the full
// enumeration order.
func EnumerateDeltaSpec(atoms []dep.Atom, inst *rel.Instance, init Binding, spec DeltaSpec, opts Options, keep func(Binding) bool) []Binding {
	if spec.Old == nil {
		return Enumerate(atoms, inst, init, opts, keep)
	}
	if len(atoms) == 0 {
		// An empty body has a single (empty) trigger, independent of any
		// facts; it was handled when the watermark was first taken.
		return nil
	}
	hasNew, allNew := false, true
	for _, a := range atoms {
		r := inst.Relation(a.Rel)
		if r == nil || r.Len() == 0 {
			return nil // an empty body relation admits no homomorphism at all
		}
		old := spec.Old.oldCount(r)
		if old < r.Len() || len(spec.Changed[a.Rel]) > 0 {
			hasNew = true
		}
		if old > 0 {
			allNew = false
		}
	}
	if !hasNew {
		return nil
	}
	if allNew {
		// Whole instance is delta: the plain enumeration is equivalent
		// and skips the per-hit vectors and the merge sort.
		return Enumerate(atoms, inst, init, opts, keep)
	}

	base := Binding{}
	for k, v := range init {
		base[k] = v
	}
	order := orderAtoms(atoms, base)

	// Viable slots: the pinned atom needs a nonempty delta segment (or
	// changed list) and every atom before it a nonempty old segment.
	slots := make([]deltaSlot, 0, len(order))
	for s := range order {
		ok := true
		for i := 0; i < s; i++ {
			if spec.Old.oldCount(inst.Relation(order[i].Rel)) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		rs := inst.Relation(order[s].Rel)
		if spec.Old.oldCount(rs) < rs.Len() {
			slots = append(slots, deltaSlot{atom: s})
		}
		if ch := spec.Changed[order[s].Rel]; len(ch) > 0 {
			slots = append(slots, deltaSlot{atom: s, changed: ch})
		}
	}
	if len(slots) == 0 {
		return nil
	}

	var hits []deltaHit
	for _, s := range slots {
		hits = enumerateSlot(order, inst, opts, base, spec.Old, s, keep, hits)
	}
	sort.Slice(hits, func(i, j int) bool { return lexLess(hits[i].vec, hits[j].vec) })
	out := make([]Binding, 0, len(hits))
	for i, h := range hits {
		if i > 0 && lexEqual(hits[i-1].vec, h.vec) {
			continue // same vector ⇒ same binding, surfaced by another slot
		}
		out = append(out, h.b)
	}
	return out
}

// enumerateSlot runs one slot of the semi-naive decomposition: a
// backtracking search with the slot atom pinned to the delta segment or
// to the changed-index list, earlier atoms pinned to the old segment,
// later atoms unconstrained. Each hit, appended to hits, carries its
// tuple-index vector for the merge sort.
func enumerateSlot(order []dep.Atom, inst *rel.Instance, opts Options, base Binding, delta Delta, slot deltaSlot, keep func(Binding) bool, hits []deltaHit) []deltaHit {
	n := len(order)
	low := make([]int, n)
	high := make([]int, n)
	vec := make([]int, n)
	const maxInt = int(^uint(0) >> 1)
	for i, a := range order {
		low[i], high[i] = 0, maxInt
		old := delta.oldCount(inst.Relation(a.Rel))
		switch {
		case i < slot.atom:
			high[i] = old
		case i == slot.atom && slot.changed == nil:
			low[i] = old
		}
	}
	s := newSearcher(inst, opts, false, nil)
	defer s.release()
	s.low, s.high, s.vec = low, high, vec
	if slot.changed != nil {
		only := make([][]int, n)
		only[slot.atom] = slot.changed
		s.only = only
	}
	s.fn = func(b Binding) bool {
		if keep == nil || keep(b) {
			hits = append(hits, deltaHit{vec: append([]int(nil), vec...), b: b.Clone()})
		}
		return true
	}
	s.match(order, 0, base)
	return hits
}

// lexEqual reports whether two tuple-index vectors are identical.
func lexEqual(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lexLess orders tuple-index vectors lexicographically; vectors of the
// same enumeration always have equal length.
func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
