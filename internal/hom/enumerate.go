package hom

import (
	"repro/internal/dep"
	"repro/internal/par"
	"repro/internal/rel"
)

// enumerateMinCandidates gates the parallel fan-out: below this many
// top-level candidates the chunk bookkeeping costs more than it saves
// and Enumerate falls back to the serial scan. A variable so tests can
// force the parallel path on small inputs.
var enumerateMinCandidates = 128

// enumerateChunksPerWorker controls load balancing: more chunks than
// workers lets fast workers steal the tail of a skewed candidate list.
const enumerateChunksPerWorker = 4

// Enumerate returns every homomorphism from the conjunction of atoms
// into the instance extending init, in exactly the order ForEach
// produces them, regardless of opts.Parallelism. When keep is non-nil,
// only bindings it accepts are returned; keep may be called
// concurrently from multiple workers and must therefore be safe for
// concurrent use (in practice: it must only read shared state). The
// binding passed to keep is live search state — it must not be retained
// or mutated; the returned slice holds fresh copies.
//
// This is the trigger-collection primitive of the chase: the expensive
// enumeration (including keep's satisfaction checks) fans out across
// workers over the candidate tuples of the first join atom, while the
// merged result stays deterministic.
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

	// The top-level candidate list is computed once, exactly as the
	// serial search would, then either scanned in place or chunked
	// across workers.
	scratch := newSearcher(inst, opts, false, nil)
	candidates := scratch.candidateTuples(r, order[0], base, 0)

	degree := par.Degree(opts.Parallelism)
	if degree <= 1 || len(candidates) < enumerateMinCandidates {
		out := enumerateRange(order, inst, opts, base, r, candidates, keep)
		scratch.release()
		return out
	}
	// The scratch searcher owns the candidate buffer when no position of
	// the first atom is bound (the live-slot scan); copy before handing
	// ranges to workers.
	owned := make([]int, len(candidates))
	copy(owned, candidates)
	scratch.release()
	candidates = owned

	chunks := par.Chunks(len(candidates), degree*enumerateChunksPerWorker)
	results := make([][]Binding, len(chunks))
	par.Do(len(chunks), degree, opts.Seed, func(c int) {
		lo, hi := chunks[c][0], chunks[c][1]
		results[c] = enumerateRange(order, inst, opts, base.Clone(), r, candidates[lo:hi], keep)
	})
	var total int
	for _, rs := range results {
		total += len(rs)
	}
	out := make([]Binding, 0, total)
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out
}

// enumerateRange runs the serial backtracking search over the given
// top-level candidates, collecting (filtered) complete bindings. Each
// call uses its own searcher, so ranges can run concurrently.
func enumerateRange(order []dep.Atom, inst *rel.Instance, opts Options, b Binding, r *rel.Relation, candidates []int, keep func(Binding) bool) []Binding {
	var out []Binding
	s := newSearcher(inst, opts, false, func(b Binding) bool {
		if keep == nil || keep(b) {
			out = append(out, b.Clone())
		}
		return true
	})
	defer s.release()
	for _, idx := range candidates {
		s.tryTuple(order, 0, r, idx, b)
	}
	return out
}
