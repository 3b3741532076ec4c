package hom

import (
	"repro/internal/dep"
	"repro/internal/rel"
)

// Enumerate returns every homomorphism from the conjunction of atoms
// into the instance extending init, in exactly the order ForEach
// produces them. When keep is non-nil, only bindings it accepts are
// returned. The binding passed to keep is live search state — it must
// not be retained or mutated; the returned slice holds fresh copies.
//
// This is the trigger-collection primitive of the chase: keep runs the
// satisfaction check on each binding as the search produces it.
func Enumerate(atoms []dep.Atom, inst *rel.Instance, init Binding, opts Options, keep func(Binding) bool) []Binding {
	if len(atoms) == 0 {
		b := init
		if b == nil {
			b = Binding{}
		}
		if keep != nil && !keep(b) {
			return nil
		}
		return []Binding{b.Clone()}
	}
	base := Binding{}
	for k, v := range init {
		base[k] = v
	}
	order := orderAtoms(atoms, base)
	r := inst.Relation(order[0].Rel)
	if r == nil {
		return nil
	}
	// The scratch searcher owns the candidate buffer when no position of
	// the first atom is bound (the live-slot scan), so it is released
	// only after the scan.
	scratch := newSearcher(inst, opts, false, nil)
	defer scratch.release()
	var out []Binding
	s := newSearcher(inst, opts, false, func(b Binding) bool {
		if keep == nil || keep(b) {
			out = append(out, b.Clone())
		}
		return true
	})
	defer s.release()
	for _, idx := range scratch.candidateTuples(r, order[0], base, 0) {
		s.tryTuple(order, 0, r, idx, base)
	}
	return out
}
