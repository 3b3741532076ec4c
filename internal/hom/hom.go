// Package hom implements homomorphism search: satisfaction of
// conjunctions of atoms in instances (the workhorse of the chase, of
// conjunctive-query evaluation, and of the ExistsSolution algorithm),
// homomorphisms between instances with labeled nulls, and the block
// decomposition of Definition 10 of the peer data exchange paper.
package hom

import (
	"sort"
	"sync"

	"repro/internal/dep"
	"repro/internal/par"
	"repro/internal/rel"
)

// Binding maps variable names to values. Bindings returned by the
// search functions are fresh copies and may be retained by callers.
type Binding map[string]rel.Value

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Options controls the homomorphism search: a canceled Ctx makes the
// backtracking searcher stop enumerating — possibly reporting a
// spurious miss, so callers that set Ctx re-check Ctx.Err() before
// trusting a result.
type Options = par.Config

// ForEach enumerates homomorphisms from the conjunction of atoms into
// the instance, extending the initial binding (which may be nil). It
// calls fn with each complete binding; fn returns false to stop the
// enumeration. ForEach reports whether the enumeration ran to
// completion (true) or was stopped by fn (false).
//
// Variables already present in init are fixed; constants in atoms must
// match constant values in the instance exactly. Labeled nulls in the
// instance are matched like any other value.
func ForEach(atoms []dep.Atom, inst *rel.Instance, init Binding, opts Options, fn func(Binding) bool) bool {
	if len(atoms) == 0 {
		b := init
		if b == nil {
			b = Binding{}
		}
		return fn(b.Clone())
	}
	s := newSearcher(inst, opts, true, fn)
	defer s.release()
	b := Binding{}
	for k, v := range init {
		b[k] = v
	}
	order := orderAtoms(atoms, b)
	return s.match(order, 0, b)
}

// Exists reports whether at least one homomorphism from the atoms into
// the instance extends init. When init is non-nil it is used as the
// live search binding — extended and fully restored before Exists
// returns — so the hot satisfaction checks of the chase pay no map
// copy. Callers must not read init from other goroutines during the
// call.
func Exists(atoms []dep.Atom, inst *rel.Instance, init Binding, opts Options) bool {
	if sat, ok := groundSatisfied(atoms, inst, init); ok {
		return sat
	}
	found := false
	// Internal no-clone path: the callback discards the binding, so the
	// per-solution copy of the public ForEach contract is wasted work.
	s := newSearcher(inst, opts, false, func(Binding) bool {
		found = true
		return false
	})
	defer s.release()
	b := init
	if b == nil {
		b = Binding{}
	}
	order := orderAtoms(atoms, b)
	s.match(order, 0, b)
	return found
}

// groundSatisfied handles the fully bound case without a backtracking
// search: when every term of every atom is a constant or bound by init,
// a homomorphism exists iff each grounded atom is a fact of the
// instance. This is the hot shape of the restricted chase's
// satisfaction re-checks for full tgds.
func groundSatisfied(atoms []dep.Atom, inst *rel.Instance, init Binding) (sat, ok bool) {
	for _, a := range atoms {
		for _, term := range a.Args {
			if term.IsConst {
				continue
			}
			if _, bound := init[term.Name]; !bound {
				return false, false
			}
		}
	}
	var t rel.Tuple
	for _, a := range atoms {
		t = t[:0]
		for _, term := range a.Args {
			if term.IsConst {
				t = append(t, rel.Const(term.Name))
			} else {
				t = append(t, init[term.Name])
			}
		}
		r := inst.Relation(a.Rel)
		if r == nil || !r.Contains(t) {
			return false, true
		}
	}
	return true, true
}

// FindOne returns one homomorphism extending init, if any.
func FindOne(atoms []dep.Atom, inst *rel.Instance, init Binding, opts Options) (Binding, bool) {
	var out Binding
	ForEach(atoms, inst, init, opts, func(b Binding) bool {
		out = b
		return false
	})
	return out, out != nil
}

// orderAtoms produces a join order: greedily pick the atom with the
// most bound variables (breaking ties toward fewer unbound variables),
// simulating the bindings it would introduce. A good order keeps the
// backtracking search close to linear on the acyclic patterns that
// dominate chase bodies.
func orderAtoms(atoms []dep.Atom, init Binding) []dep.Atom {
	if len(atoms) <= 1 {
		// Nothing to order; the callers never mutate the slice. This is
		// the hot shape of the chase's per-trigger head checks.
		return atoms
	}
	bound := make(map[string]bool, len(init))
	for v := range init {
		bound[v] = true
	}
	remaining := make([]dep.Atom, len(atoms))
	copy(remaining, atoms)
	out := make([]dep.Atom, 0, len(atoms))
	for len(remaining) > 0 {
		best, bestScore := 0, -1<<30
		for i, a := range remaining {
			nb, nu := 0, 0
			for _, t := range a.Args {
				switch {
				case t.IsConst:
					nb++
				case bound[t.Name]:
					nb++
				default:
					nu++
				}
			}
			score := nb*16 - nu
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		a := remaining[best]
		out = append(out, a)
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, t := range a.Args {
			if !t.IsConst {
				bound[t.Name] = true
			}
		}
	}
	return out
}

// searcher carries the state of one backtracking search: the target
// instance, options, the solution callback, and per-depth scratch
// buffers reused across candidates so the inner loop stays
// allocation-free. Searchers are pooled; each concurrent search uses
// its own.
type searcher struct {
	inst  *rel.Instance
	opts  Options
	fn    func(Binding) bool
	clone bool // hand fn a fresh copy (public ForEach contract)

	// newly[i] holds the variables bound at depth i, reset per
	// candidate; allIdx[i] is the full-scan candidate buffer for depth
	// i, used when no position index applies.
	newly  [][]string
	allIdx [][]int

	// A semi-naive search (see EnumerateDeltaSpec) keeps only bindings
	// that use a new or changed tuple: delta[i] is the watermark of
	// depth i, pending is set while the current path has chosen no such
	// tuple yet, and last is the deepest depth whose atom has one. A
	// pending path scans depths before last as usual and, at last, tries
	// only that atom's changed and then its new tuples, so a path that
	// touches nothing is cut there. Other searches leave delta empty and
	// pending unset.
	delta   []depthDelta
	last    int
	pending bool

	// ctxTick counts match calls between polls of opts.Ctx; canceled
	// latches a cancellation observed mid-search so the whole search
	// unwinds without further polling.
	ctxTick  int
	canceled bool
}

// ctxPollEvery is how many match calls pass between polls of the
// search context. Polling costs a mutex acquisition inside the context,
// so it is amortized; the bound keeps worst-case cancellation latency
// in the microseconds on any realistic instance.
const ctxPollEvery = 1024

// cancelSearch reports whether the search's context has been canceled,
// polling it every ctxPollEvery calls.
func (s *searcher) cancelSearch() bool {
	if s.opts.Ctx == nil {
		return false
	}
	if s.canceled {
		return true
	}
	s.ctxTick++
	if s.ctxTick%ctxPollEvery != 0 {
		return false
	}
	if s.opts.Ctx.Err() != nil {
		s.canceled = true
	}
	return s.canceled
}

var searcherPool = sync.Pool{New: func() any { return &searcher{} }}

func newSearcher(inst *rel.Instance, opts Options, clone bool, fn func(Binding) bool) *searcher {
	s := searcherPool.Get().(*searcher)
	s.inst, s.opts, s.clone, s.fn = inst, opts, clone, fn
	s.ctxTick, s.canceled = 0, false
	return s
}

func (s *searcher) release() {
	s.inst, s.fn, s.opts.Ctx = nil, nil, nil
	// Drop the changed lists so the pool does not pin them.
	clear(s.delta)
	s.delta, s.pending = s.delta[:0], false
	searcherPool.Put(s)
}

// match extends the binding over atoms[i:], calling the searcher's fn
// with every complete extension. It reports whether the enumeration ran
// to completion (true) or was stopped by fn (false).
func (s *searcher) match(atoms []dep.Atom, i int, b Binding) bool {
	if s.cancelSearch() {
		return false // abandon: caller must check opts.Ctx.Err()
	}
	if i == len(atoms) {
		if s.clone {
			return s.fn(b.Clone())
		}
		return s.fn(b)
	}
	a := atoms[i]
	r := s.inst.Relation(a.Rel)
	if r == nil {
		return true // no tuples: no matches for this atom; enumeration complete
	}
	if s.pending {
		return s.matchPending(atoms, i, r, b)
	}
	return s.tryAll(atoms, i, r, s.candidateTuples(r, a, b, i, 0), b)
}

// tryAll runs tryTuple on each index in turn, stopping when the
// enumeration is stopped.
func (s *searcher) tryAll(atoms []dep.Atom, i int, r *rel.Relation, idxs []int, b Binding) bool {
	for _, idx := range idxs {
		if !s.tryTuple(atoms, i, r, idx, b) {
			return false
		}
	}
	return true
}

// matchPending is match at depth i on a path that has chosen no new or
// changed tuple yet. At depth last the changed indexes (all below the
// old count) come before the new segment, so candidates stay ascending
// either way and the search keeps ForEach's order.
func (s *searcher) matchPending(atoms []dep.Atom, i int, r *rel.Relation, b Binding) bool {
	d := s.delta[i]
	if i == s.last {
		s.pending = false
		cont := s.tryAll(atoms, i, r, d.changed, b) &&
			s.tryAll(atoms, i, r, s.candidateTuples(r, atoms[i], b, i, d.old), b)
		s.pending = true
		return cont
	}
	for _, idx := range s.candidateTuples(r, atoms[i], b, i, 0) {
		s.pending = !d.touches(idx)
		cont := s.tryTuple(atoms, i, r, idx, b)
		s.pending = true
		if !cont {
			return false
		}
	}
	return true
}

// tryTuple attempts to unify atoms[i] with tuple idx of its relation
// under b and, on success, recurses into the remaining atoms. It
// reports whether the enumeration should continue.
func (s *searcher) tryTuple(atoms []dep.Atom, i int, r *rel.Relation, idx int, b Binding) bool {
	a := atoms[i]
	t := r.TupleAt(idx)
	for len(s.newly) <= i {
		s.newly = append(s.newly, nil)
	}
	newly := s.newly[i][:0]
	ok := true
	for j, term := range a.Args {
		v := t[j]
		if term.IsConst {
			if !v.IsConst() || v.ConstText() != term.Name {
				ok = false
				break
			}
			continue
		}
		if bv, bound := b[term.Name]; bound {
			if bv != v {
				ok = false
				break
			}
			continue
		}
		b[term.Name] = v
		newly = append(newly, term.Name)
	}
	s.newly[i] = newly
	cont := true
	if ok {
		cont = s.match(atoms, i+1, b)
	}
	for _, v := range s.newly[i] {
		delete(b, v)
	}
	return cont
}

// candidateTuples returns the ascending indexes, from index from on, of
// tuples possibly matching the atom under the current binding, using
// the most selective position index available. The returned slice is
// only valid until the next call at the same depth.
func (s *searcher) candidateTuples(r *rel.Relation, a dep.Atom, b Binding, depth, from int) []int {
	bestPos, bestVal, bestLen := -1, rel.Value{}, -1
	for j, term := range a.Args {
		var v rel.Value
		if term.IsConst {
			v = rel.Const(term.Name)
		} else if bv, bound := b[term.Name]; bound {
			v = bv
		} else {
			continue
		}
		l := len(r.MatchingAt(j, v))
		if bestLen == -1 || l < bestLen {
			bestPos, bestVal, bestLen = j, v, l
		}
	}
	if bestPos >= 0 {
		// Position-index lists hold ascending tuple indexes (they are
		// append-only as tuples arrive), so the clip is a binary search,
		// not a scan.
		list := r.MatchingAt(bestPos, bestVal)
		if from > 0 {
			list = list[sort.SearchInts(list, from):]
		}
		return list
	}
	for len(s.allIdx) <= depth {
		s.allIdx = append(s.allIdx, nil)
	}
	all := s.allIdx[depth][:0]
	for i := from; i < r.Len(); i++ {
		// Tuple slots tombstoned by egd merges stay in [0, Len) but must
		// never match; the position-index path is clean by construction.
		if r.Live(i) {
			all = append(all, i)
		}
	}
	s.allIdx[depth] = all
	return all
}
