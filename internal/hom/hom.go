// Package hom implements homomorphism search: satisfaction of
// conjunctions of atoms in instances (the workhorse of the chase, of
// conjunctive-query evaluation, and of the ExistsSolution algorithm),
// homomorphisms between instances with labeled nulls, and the block
// decomposition of Definition 10 of the peer data exchange paper.
//
// There is one join engine: a conjunction is compiled once (Conj, see
// conj.go) into atoms over variable slots with a fixed join order, and
// one backtracking searcher binds a []rel.Value by slot.
package hom

import (
	"sort"
	"sync"

	"repro/internal/par"
	"repro/internal/rel"
)

// Options controls the homomorphism search: a canceled Ctx makes the
// backtracking searcher stop enumerating — possibly reporting a
// spurious miss, so callers that set Ctx re-check Ctx.Err() before
// trusting a result.
type Options = par.Config

// searcher carries the state of one backtracking search over a
// compiled conjunction: the instances its atoms read, their relations
// resolved per depth, the caller's slot vector, the solution callback
// (nil for an existence check, which records found and stops), and
// per-depth scratch reused across candidates so the inner loop stays
// allocation-free. Searchers are pooled; each concurrent search uses
// its own.
type searcher struct {
	atoms []catom
	insts [2]*rel.Instance
	rels  []*rel.Relation
	vals  []rel.Value
	opts  Options
	fn    func([]rel.Value) bool
	found bool

	// allIdx[i] is the full-scan candidate buffer for depth i, used when
	// no position index applies; tup is the ground check's tuple.
	allIdx [][]int
	tup    rel.Tuple

	// A semi-naive search (see Conj.EnumerateDeltaSpec) keeps only
	// bindings that use a new or changed tuple: delta[i] is the
	// watermark of depth i, pending is set while the current path has
	// chosen no such tuple yet, and last is the deepest depth whose atom
	// has one. A pending path scans depths before last as usual and, at
	// last, tries only that atom's changed and then its new tuples, so a
	// path that touches nothing is cut there. Other searches leave delta
	// empty and pending unset.
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
// search context — the one poll cadence of every join. Polling costs a
// mutex acquisition inside the context, so it is amortized; the bound
// keeps worst-case cancellation latency in the microseconds on any
// realistic instance.
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

// newSearcher readies a pooled searcher for c over inst and alt, or
// returns nil when some atom's relation is absent (no homomorphism
// exists).
func (c *Conj) newSearcher(inst, alt *rel.Instance, vals []rel.Value, opts Options, fn func([]rel.Value) bool) *searcher {
	s := searcherPool.Get().(*searcher)
	s.insts = [2]*rel.Instance{inst, alt}
	s.rels = s.rels[:0]
	for i := range c.atoms {
		r := s.insts[c.atoms[i].in].Relation(c.atoms[i].rel)
		if r == nil {
			s.release()
			return nil
		}
		s.rels = append(s.rels, r)
	}
	s.atoms, s.vals, s.opts, s.fn = c.atoms, vals, opts, fn
	s.found, s.ctxTick, s.canceled = false, 0, false
	return s
}

func (s *searcher) release() {
	// Drop every reference so the pool pins no instance, vector or
	// changed list.
	clear(s.rels)
	clear(s.delta)
	s.atoms, s.vals, s.fn, s.opts.Ctx = nil, nil, nil, nil
	s.insts = [2]*rel.Instance{}
	s.delta, s.pending = s.delta[:0], false
	searcherPool.Put(s)
}

// match extends the binding over atoms[i:], calling fn with every
// complete extension. It reports whether the enumeration ran to
// completion (true) or was stopped by fn or a canceled context
// (false).
func (s *searcher) match(i int) bool {
	if s.cancelSearch() {
		return false // abandon: caller must check opts.Ctx.Err()
	}
	if i == len(s.atoms) {
		if s.fn == nil {
			s.found = true
			return false
		}
		return s.fn(s.vals)
	}
	if s.pending {
		return s.matchPending(i)
	}
	return s.tryAll(i, s.candidates(i, 0))
}

// tryAll runs tryTuple on each index in turn, stopping when the
// enumeration is stopped.
func (s *searcher) tryAll(i int, idxs []int) bool {
	for _, idx := range idxs {
		if !s.tryTuple(i, idx) {
			return false
		}
	}
	return true
}

// matchPending is match at depth i on a path that has chosen no new or
// changed tuple yet. At depth last the changed indexes (all below the
// old count) come before the new segment, so candidates stay ascending
// either way and the search keeps ForEach's order.
func (s *searcher) matchPending(i int) bool {
	d := s.delta[i]
	if i == s.last {
		s.pending = false
		cont := s.tryAll(i, d.changed) && s.tryAll(i, s.candidates(i, d.old))
		s.pending = true
		return cont
	}
	for _, idx := range s.candidates(i, 0) {
		s.pending = !d.touches(idx)
		cont := s.tryTuple(i, idx)
		s.pending = true
		if !cont {
			return false
		}
	}
	return true
}

// tryTuple unifies the depth-i atom with tuple idx of its relation and,
// on success, recurses into the remaining atoms. A first binding writes
// its slot; nothing is undone on backtracking, because the compiled
// layout never reads a slot before the depth that binds it. It reports
// whether the enumeration should continue.
func (s *searcher) tryTuple(i, idx int) bool {
	t := s.rels[i].TupleAt(idx)
	for j := range s.atoms[i].args {
		g := &s.atoms[i].args[j]
		switch g.op {
		case opConst:
			if t[j] != g.val {
				return true
			}
		case opBind:
			s.vals[g.slot] = t[j]
		default:
			if t[j] != s.vals[g.slot] {
				return true
			}
		}
	}
	return s.match(i + 1)
}

// candidates returns the ascending indexes, from index from on, of the
// tuples possibly matching the depth-i atom under the current binding:
// the shortest position index list over its constant and bound
// positions (the first on ties), or every live tuple. The returned
// slice is only valid until the next call at the same depth.
func (s *searcher) candidates(i, from int) []int {
	r := s.rels[i]
	var best []int
	found := false
	for j := range s.atoms[i].args {
		g := &s.atoms[i].args[j]
		var v rel.Value
		switch g.op {
		case opConst:
			v = g.val
		case opCheck:
			v = s.vals[g.slot]
		default:
			continue
		}
		if l := r.MatchingAt(j, v); !found || len(l) < len(best) {
			best, found = l, true
		}
	}
	if found {
		// Position-index lists hold ascending tuple indexes (they are
		// append-only as tuples arrive), so the clip is a binary search,
		// not a scan.
		if from > 0 {
			best = best[sort.SearchInts(best, from):]
		}
		return best
	}
	for len(s.allIdx) <= i {
		s.allIdx = append(s.allIdx, nil)
	}
	all := s.allIdx[i][:0]
	for idx := from; idx < r.Len(); idx++ {
		// Tuple slots tombstoned by egd merges stay in [0, Len) but must
		// never match; the position-index path is clean by construction.
		if r.Live(idx) {
			all = append(all, idx)
		}
	}
	s.allIdx[i] = all
	return all
}
