// Plan execution: an index-driven backtracking join over the compiled
// atoms. The top atom of each disjunct scans its candidate tuples in
// index order, so output is deterministic.
package qplan

import (
	"context"

	"repro/internal/rel"
)

// ctxPollEvery is how many candidate tuples a scan visits between
// context polls (matching the hom searcher's cadence).
const ctxPollEvery = 1024

// runner is the backtracking state of one disjunct scan; params are
// the values of the disjunct's param constants.
type runner struct {
	d      *disjunct
	params []rel.Value
	i, j   *rel.Instance
	ctx    context.Context
	steps  int
	stop   bool // context canceled
	halted bool // emit returned false
	emit   func(rel.Tuple) bool
	vals   []rel.Value
	set    []bool
}

func newRunner(d *disjunct, params []rel.Value, i, j *rel.Instance, ctx context.Context, emit func(rel.Tuple) bool) *runner {
	return &runner{
		d: d, params: params, i: i, j: j, ctx: ctx, emit: emit,
		vals: make([]rel.Value, d.nvars),
		set:  make([]bool, d.nvars),
	}
}

func (r *runner) instFor(a *catom) *rel.Instance {
	if a.source {
		return r.i
	}
	return r.j
}

// poll reports false when the context is done.
func (r *runner) poll() bool {
	r.steps++
	if r.steps >= ctxPollEvery {
		r.steps = 0
		if r.ctx != nil && r.ctx.Err() != nil {
			r.stop = true
			return false
		}
	}
	return true
}

// run matches d.order[depth:] under the current binding, emitting every
// complete head row. It returns false to unwind the whole search (emit
// stopped it, or the context is done).
func (r *runner) run(depth int) bool {
	if depth == len(r.d.order) {
		out := make(rel.Tuple, len(r.d.head))
		for i, t := range r.d.head {
			if t.constant {
				out[i] = t.value(r.params)
			} else {
				out[i] = r.vals[t.v]
			}
		}
		if !r.emit(out) {
			r.halted = true
			return false
		}
		return true
	}
	a := &r.d.atoms[r.d.order[depth]]
	rl := r.instFor(a).Relation(a.rel)
	if rl == nil {
		return true
	}
	cands, full := r.candidates(a, rl)
	if full {
		for idx := 0; idx < rl.Len(); idx++ {
			if !rl.Live(idx) {
				continue
			}
			if !r.tryTuple(a, rl.TupleAt(idx), depth) {
				return false
			}
		}
		return true
	}
	for _, idx := range cands {
		if !r.tryTuple(a, rl.TupleAt(idx), depth) {
			return false
		}
	}
	return true
}

// candidates picks the tightest position index for the atom under the
// current binding; full=true means no position is bound and the whole
// relation must be scanned.
func (r *runner) candidates(a *catom, rl *rel.Relation) (cands []int, full bool) {
	best := -1
	for p, t := range a.args {
		var v rel.Value
		switch {
		case t.constant:
			v = t.value(r.params)
		case r.set[t.v]:
			v = r.vals[t.v]
		default:
			continue
		}
		m := rl.MatchingAt(p, v)
		if best < 0 || len(m) < best {
			cands, best = m, len(m)
		}
		if best == 0 {
			break
		}
	}
	return cands, best < 0
}

// tryTuple extends the binding with one candidate tuple and recurses.
func (r *runner) tryTuple(a *catom, tup rel.Tuple, depth int) bool {
	if !r.poll() {
		return false
	}
	var newlyArr [16]int
	newly := newlyArr[:0]
	ok := true
	for p, t := range a.args {
		v := tup[p]
		if t.constant {
			if t.value(r.params) != v {
				ok = false
				break
			}
			continue
		}
		if r.set[t.v] {
			if r.vals[t.v] != v {
				ok = false
				break
			}
			continue
		}
		r.vals[t.v] = v
		r.set[t.v] = true
		newly = append(newly, t.v)
	}
	cont := true
	if ok {
		cont = r.run(depth + 1)
	}
	for _, s := range newly {
		r.set[s] = false
	}
	return cont
}

// topCandidates returns the tuple indices the top atom scans: the
// tightest constant-bound position index, or every live tuple.
func topCandidates(a *catom, params []rel.Value, rl *rel.Relation) []int {
	best := -1
	var cands []int
	for p, t := range a.args {
		if !t.constant {
			continue
		}
		m := rl.MatchingAt(p, t.value(params))
		if best < 0 || len(m) < best {
			cands, best = m, len(m)
		}
		if best == 0 {
			break
		}
	}
	if best >= 0 {
		return cands
	}
	out := make([]int, 0, rl.LiveLen())
	for idx := 0; idx < rl.Len(); idx++ {
		if rl.Live(idx) {
			out = append(out, idx)
		}
	}
	return out
}

// collectRows evaluates one disjunct and returns every head row in
// candidate order (duplicates included; the caller deduplicates).
func collectRows(d *disjunct, params []rel.Value, i, j *rel.Instance, opts EvalOptions) ([]rel.Tuple, error) {
	var out []rel.Tuple
	err := forEachRow(d, params, i, j, opts.Ctx, "plan scan", func(t rel.Tuple) bool {
		out = append(out, t)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// existsMatch reports whether the disjunct has any match, stopping at
// the first one.
func existsMatch(d *disjunct, params []rel.Value, i, j *rel.Instance, opts EvalOptions) (bool, error) {
	if len(d.order) == 0 {
		return true, nil
	}
	found := false
	err := forEachRow(d, params, i, j, opts.Ctx, "plan scan", func(rel.Tuple) bool {
		found = true
		return false
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// forEachRow enumerates one disjunct's head rows in candidate order,
// with its param constants taken from params, stopping when fn returns
// false. A canceled ctx stops the scan with an error naming what was
// scanning.
func forEachRow(d *disjunct, params []rel.Value, i, j *rel.Instance, ctx context.Context, what string, fn func(rel.Tuple) bool) error {
	if len(d.order) == 0 {
		return nil
	}
	a := &d.atoms[d.order[0]]
	inst := j
	if a.source {
		inst = i
	}
	rl := inst.Relation(a.rel)
	if rl == nil {
		return nil
	}
	r := newRunner(d, params, i, j, ctx, fn)
	for _, idx := range topCandidates(a, params, rl) {
		if !r.tryTuple(a, rl.TupleAt(idx), 0) {
			break
		}
	}
	if r.stop {
		return canceled(ctx, what)
	}
	return nil
}
