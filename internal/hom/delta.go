package hom

import (
	"sort"

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
