// Package chase implements the chase procedure used by the peer data
// exchange paper: the standard (restricted) chase with tgds and egds of
// Fagin, Kolaitis, Miller, Popa, and the solution-aware chase of
// Definitions 6 and 7, which witnesses existential variables with values
// drawn from a given solution instead of fresh labeled nulls. The
// oblivious chase lives only in the reference chase, oracle.Chase.
package chase

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/par"
	"repro/internal/rel"
)

// ErrBudgetExhausted is returned when the chase did not reach a fixpoint
// within the configured step budget. With weakly acyclic tgds this never
// happens for the default budget (the chase terminates in polynomially
// many steps, Lemma 1); with cyclic tgds it is the expected outcome.
var ErrBudgetExhausted = errors.New("chase: step budget exhausted before fixpoint")

// DefaultMaxSteps is the step budget applied when Options.MaxSteps is 0.
const DefaultMaxSteps = 200000

// BudgetHint suggests a step budget for chasing an instance of the
// given size with a weakly acyclic set of tgds, derived from the
// maximum position rank r (dep.MaxRank): the chase creates at most
// polynomially many facts with the polynomial degree governed by r, so
// the hint grows as size^(r+2), clamped to at least DefaultMaxSteps.
// For non-weakly-acyclic sets it returns DefaultMaxSteps — no finite
// budget is guaranteed to suffice, and hitting it is the expected
// diagnosis. The hint is a heuristic ceiling for honest termination
// detection, not a tight bound.
func BudgetHint(tgds []dep.TGD, size int) int {
	r, err := dep.MaxRank(tgds)
	if err != nil {
		return DefaultMaxSteps
	}
	if size < 2 {
		size = 2
	}
	budget := 1
	for e := 0; e < r+2; e++ {
		if budget > 1<<40/size {
			return 1 << 40 // saturate well below overflow
		}
		budget *= size
	}
	if budget < DefaultMaxSteps {
		return DefaultMaxSteps
	}
	return budget
}

// Options configures a chase run. The embedded execution config applies
// to the trigger searches: a canceled Ctx stops the run at the next step
// with an error wrapping par.ErrCanceled and the context's own error.
type Options struct {
	par.Config
	// MaxSteps bounds the number of chase steps; 0 means
	// DefaultMaxSteps.
	MaxSteps int
	// Nulls supplies fresh labeled nulls; if nil, a source seeded past
	// the nulls of the start instance is created.
	Nulls *rel.NullSource
}

// Result reports the outcome of a chase run.
type Result struct {
	// Instance is the chased instance: the fixpoint on success, the
	// instance at failure or budget exhaustion otherwise.
	Instance *rel.Instance
	// Steps is the number of chase steps applied.
	Steps int
	// Failed reports a failing chase: an egd tried to equate two
	// distinct constants.
	Failed bool
	// FailedOn is the label of the dependency that failed.
	FailedOn string
	// Start is the instance the run was chased from (the caller's
	// argument, not the working clone; for a resumed run, the union of
	// the previous Start and the appended facts). Resume re-chases from
	// it whenever the incremental path is unsound.
	Start *rel.Instance
	// EgdFired reports that at least one egd merge was applied. The
	// fixpoint's facts are then not a superset of every intermediate
	// state; Resume stays sound regardless, because it reasons from the
	// fixpoint itself and canonicalizes appended facts through the
	// retained union-find (see Resumable for the exact eligibility).
	EgdFired bool
	// UnionFind records the equivalence classes the run's egd merges
	// created, with the surviving value of each class as its
	// representative. It is nil when no merge happened. Resume uses it
	// to canonicalize appended facts; callers must treat it as
	// read-only (Clone first).
	UnionFind *rel.UnionFind
	// Merges counts the egd merge steps applied; Finds counts the
	// union-find lookups they and any resumed continuation performed.
	// Both feed the pdxbench counters.
	Merges int
	Finds  int
}

// Freeze freezes the result's Start and Instance. A result retained in
// a shared artifact must be frozen: Resume clones both, and cloning an
// unfrozen instance writes to it (see rel.Instance), so concurrent
// resumes of one unfrozen result would race.
func (r *Result) Freeze() {
	r.Start.Freeze()
	r.Instance.Freeze()
}

func (o Options) maxSteps() int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return DefaultMaxSteps
}

func (o Options) nulls(start *rel.Instance) *rel.NullSource {
	if o.Nulls != nil {
		return o.Nulls
	}
	ns := &rel.NullSource{}
	ns.SeenIn(start)
	return ns
}

// Run chases the start instance with the dependencies until fixpoint,
// failure, or budget exhaustion. The start instance's facts are not
// changed, but the run clones it, which counts as a write to an
// unfrozen start (see rel.Instance).
// Disjunctive tgds cannot be chased and cause an error.
func Run(start *rel.Instance, deps []dep.Dependency, opts Options) (*Result, error) {
	return runFrom(start, deps, nil, opts)
}

// RunSolutionAware performs the solution-aware chase of Definitions 6–7:
// it chases start with the dependencies, but witnesses the existential
// variables of tgds using values from the witness instance, which must
// contain start and satisfy the tgds in deps. No fresh nulls are ever
// created. The returned instance is contained in witness whenever start
// is (this is the property Lemma 2 exploits to extract small solutions).
func RunSolutionAware(start *rel.Instance, deps []dep.Dependency, witness *rel.Instance, opts Options) (*Result, error) {
	return runFrom(start, deps, witness, opts)
}

// runFrom is Run (witness nil) and RunSolutionAware: it rejects
// disjunctive tgds and chases a clone of start from zero watermarks.
func runFrom(start *rel.Instance, deps []dep.Dependency, witness *rel.Instance, opts Options) (*Result, error) {
	for _, d := range deps {
		if _, ok := d.(dep.DisjunctiveTGD); ok {
			return nil, fmt.Errorf("chase: cannot chase disjunctive tgd %s", d.DepLabel())
		}
	}
	st := &state{
		inst:   start.Clone(),
		start:  start,
		opts:   opts,
		nulls:  opts.nulls(start),
		budget: opts.maxSteps(),
	}
	return st.run(deps, witness)
}

// mark is one dependency's semi-naive watermark: the per-relation
// tuple-slot counts of its previous trigger collection (nil counts =
// never collected: full rescan) plus the length of the merge change log
// it had consumed at that point. Together they
// identify exactly the facts the dependency has not yet seen: the new
// segments past counts, and the old tuples the log records as rewritten
// since logPos.
type mark struct {
	counts hom.Delta
	logPos int
}

// changeEntry is one record of the merge change log: tuple slot idx of
// relation rel was rewritten in place by an egd merge. The log is
// append-only and shared by all dependencies; each consumes its own
// suffix via mark.logPos.
type changeEntry struct {
	rel string
	idx int
}

type state struct {
	inst     *rel.Instance
	start    *rel.Instance // the caller's start instance, reported on Result
	opts     Options
	nulls    *rel.NullSource
	budget   int
	steps    int
	egdFired bool

	// Union-find egd engine state: uf records the merge history (nil
	// until the first merge, unless Resume seeded it); changedLog is
	// the merge change log (entries may be stale — tombstoned or
	// re-rewritten later — consumers re-filter against the live
	// instance); merges counts merge steps.
	uf         *rel.UnionFind
	changedLog []changeEntry
	merges     int

	// Semi-naive bookkeeping, indexed by dependency position. marks[di]
	// is the watermark of dependency di: for a tgd, its previous trigger
	// collection; for an egd, the end of its last clean detection pass.
	// Merges keep counts valid (surviving tuples keep their slots) and
	// route their rewrites through the change log, so marks are never
	// reset. Resume pre-seeds marks so the first round only enumerates
	// triggers touching the appended facts. brels[di] caches di's body
	// relation names, which changedSince filters the log by.
	marks []mark
	brels [][]string
	// comp[di] is dependency di compiled to variable slots, once per
	// run.
	comp []compiled
	// triggers is the buffer collectTriggers fills with ntriggers slot
	// vectors, one per kept trigger, back to back, reused across
	// collections (a body with no variable has zero-length ones); vals
	// is the live slot vector of the searches.
	triggers  []rel.Value
	ntriggers int
	vals      []rel.Value
}

// compiled is one dependency over one slot layout: the body's
// variables first, in first-occurrence order, then a tgd's (or each
// disjunct's) existential variables. A trigger is a slot vector of the
// body; a head is compiled with the body's slots pre-bound, so the
// trigger's own vector checks it, and a step writes the existential
// slots and grounds the head atoms by index copies.
type compiled struct {
	body, head  *hom.Conj
	heads       []hom.Atom
	disjuncts   []*hom.Conj // the heads of a disjunctive tgd
	exist       []int       // existential slots of a tgd
	left, right int         // the equated slots of an egd
	slots       int
}

// compile compiles dependency d to slots.
func compile(d dep.Dependency) compiled {
	var vars hom.Vars
	c := compiled{body: vars.Compile(d.BodyAtoms())}
	pre := vars.Len()
	switch d := d.(type) {
	case dep.TGD:
		c.heads = vars.Atoms(d.Head)
		c.head = hom.NewConj(c.heads, pre)
		for s := pre; s < vars.Len(); s++ {
			c.exist = append(c.exist, s)
		}
	case dep.EGD:
		c.left, c.right = vars.Slot(d.Left), vars.Slot(d.Right)
	case dep.DisjunctiveTGD:
		for _, h := range d.Disjuncts {
			c.disjuncts = append(c.disjuncts, hom.NewConj(vars.Atoms(h), pre))
		}
	}
	c.slots = vars.Len()
	return c
}

// result packages the run's current outcome. Tombstoned slots left by
// in-place merges are compacted away here, so no caller ever observes
// them; compaction preserves the facts and their relative order, only
// the slot indexes shift (which is why watermarks must not outlive the
// run).
func (st *state) result() *Result {
	res := &Result{
		Instance:  st.inst.Compact(),
		Steps:     st.steps,
		Start:     st.start,
		EgdFired:  st.egdFired,
		UnionFind: st.uf,
		Merges:    st.merges,
	}
	if st.uf != nil {
		res.Finds = st.uf.Finds()
	}
	return res
}

// ctxErr returns a wrapped cancellation error when the chase context
// has been canceled, nil otherwise. The wrap carries both
// par.ErrCanceled and the context's own error, so errors.Is matches
// either identity.
func (st *state) ctxErr() error {
	if st.opts.Ctx == nil {
		return nil
	}
	if err := st.opts.Ctx.Err(); err != nil {
		return fmt.Errorf("chase: %w after %d steps: %w", par.ErrCanceled, st.steps, err)
	}
	return nil
}

func (st *state) run(deps []dep.Dependency, witness *rel.Instance) (*Result, error) {
	// Resume pre-seeds st.marks with the previous fixpoint's
	// watermarks; a fresh run starts from zero marks (full first scan).
	if st.marks == nil {
		st.marks = make([]mark, len(deps))
	}
	st.brels = make([][]string, len(deps))
	st.comp = make([]compiled, len(deps))
	// Precompute per-dependency state once per run.
	for di, d := range deps {
		seen := map[string]bool{}
		for _, a := range d.BodyAtoms() {
			if !seen[a.Rel] {
				seen[a.Rel] = true
				st.brels[di] = append(st.brels[di], a.Rel)
			}
		}
		st.comp[di] = compile(d)
		if n := st.comp[di].slots; n > len(st.vals) {
			st.vals = make([]rel.Value, n)
		}
	}
	for {
		progressed, failed, failedOn, err := st.round(deps, witness)
		if err != nil {
			return st.result(), err
		}
		// A canceled context truncates the trigger searches, so a round
		// under cancellation can masquerade as a fixpoint (or miss a
		// failure); re-check before trusting the round's outcome.
		if err := st.ctxErr(); err != nil {
			return st.result(), err
		}
		if failed {
			res := st.result()
			res.Failed, res.FailedOn = true, failedOn
			return res, nil
		}
		if !progressed {
			return st.result(), nil
		}
	}
}

// round applies one pass over all dependencies, firing every applicable
// trigger found against the instance as it evolves. It reports whether
// any step was applied.
//
// Trigger search is semi-naive for every dependency: it enumerates
// only bindings that touch at least one fact added — or rewritten by a
// merge — since the dependency's watermark in st.marks. This is
// lossless because a binding over unchanged old facts was handled when
// the watermark was taken and stays handled. For a tgd, the trigger was
// satisfied by the end of that collection's firing pass, and
// satisfaction survives later steps: tgd additions are monotone, and an
// egd merge substitutes values, mapping the satisfying head facts onto
// facts of the merged instance (the trigger's own values are untouched
// — a binding whose values a merge rewrote has, by definition, a
// changed tuple in it and is re-enumerated via the change log). For an
// egd, the binding was clean (Left = Right) at the end of its last
// clean pass, and it still is. A tgd's watermark advances at each
// collection, an egd's after each clean pass: to the round-start
// snapshot while the round is still clean, to a fresh snapshot once
// the round went dirty.
func (st *state) round(deps []dep.Dependency, witness *rel.Instance) (progressed, failed bool, failedOn string, err error) {
	// Snapshot the round-start sizes once; the map is shared by every
	// watermark taken from it and never mutated after this point.
	roundStart := mark{counts: hom.Delta(st.inst.TupleCounts()), logPos: len(st.changedLog)}
	dirty := false
	now := func() mark {
		if !dirty {
			// Instance still equals the round start, so the shared
			// snapshot doubles as this watermark.
			return roundStart
		}
		return mark{counts: hom.Delta(st.inst.TupleCounts()), logPos: len(st.changedLog)}
	}
	for di, d := range deps {
		switch d := d.(type) {
		case dep.TGD:
			st.collectTriggers(di)
			st.marks[di] = now()
			p, e := st.fireTriggers(di, d, witness)
			if e != nil {
				return false, false, "", e
			}
			if p {
				progressed, dirty = true, true
			}
		case dep.EGD:
			p, f, e := st.egdPass(di, d)
			if e != nil {
				return false, false, "", e
			}
			if f {
				return progressed, true, d.Label, nil
			}
			if p {
				progressed, dirty = true, true
			}
			// The pass ended with no active trigger for d: later passes
			// enumerate only bindings past this state.
			st.marks[di] = now()
		default:
			return false, false, "", fmt.Errorf("chase: unsupported dependency type %T", d)
		}
	}
	return progressed, false, "", nil
}

// changedSince assembles the merged-value delta a dependency must
// re-enumerate: for each of its body relations, the sorted live tuple
// slots the change log records as rewritten since the mark, restricted
// to the mark's old segment (newer slots are covered by the count
// delta). Entries tombstoned by later merges are dropped — a dead slot
// matches nothing. Returns nil when the suffix holds nothing relevant.
func (st *state) changedSince(m mark, rels []string) map[string][]int {
	if m.logPos >= len(st.changedLog) {
		return nil
	}
	want := make(map[string]bool, len(rels))
	for _, name := range rels {
		want[name] = true
	}
	var out map[string][]int
	for _, e := range st.changedLog[m.logPos:] {
		if !want[e.rel] || e.idx >= m.counts[e.rel] {
			continue
		}
		if r := st.inst.Relation(e.rel); r == nil || !r.Live(e.idx) {
			continue
		}
		if out == nil {
			out = make(map[string][]int)
		}
		out[e.rel] = append(out[e.rel], e.idx)
	}
	for name, lst := range out {
		sort.Ints(lst)
		dedup := lst[:1]
		for _, idx := range lst[1:] {
			if idx != dedup[len(dedup)-1] {
				dedup = append(dedup, idx)
			}
		}
		out[name] = dedup
	}
	return out
}

// deltaSpec returns the search delta of dependency di: the bindings
// that touch a fact added or rewritten since its watermark.
func (st *state) deltaSpec(di int) hom.DeltaSpec {
	m := st.marks[di]
	spec := hom.DeltaSpec{Old: m.counts}
	if m.counts != nil {
		spec.Changed = st.changedSince(m, st.brels[di])
	}
	return spec
}

// collectTriggers enumerates the triggers of tgd di against the current
// instance that were not already satisfied at collection time, skipping
// — via the delta watermark and the merge change log — triggers whose
// body facts all predate di's previous collection unchanged. The
// triggers come back as slot vectors of di's layout, back to back in the
// full-enumeration order, in st.triggers, which the next collection
// overwrites.
func (st *state) collectTriggers(di int) {
	c := &st.comp[di]
	st.triggers, st.ntriggers = st.triggers[:0], 0
	c.body.EnumerateDeltaSpec(st.inst, st.vals[:c.slots], st.deltaSpec(di), st.opts.Config, func(vals []rel.Value) bool {
		if !c.head.Exists(st.inst, vals, st.opts.Config) {
			st.triggers = append(st.triggers, vals...)
			st.ntriggers++
		}
		return true
	})
}

// fireTriggers fires the collected triggers of d that are still
// applicable, serially and in collection order. Triggers were collected
// up front so the enumeration never observes its own insertions; new
// triggers created by the fired steps are picked up by the next round.
func (st *state) fireTriggers(di int, d dep.TGD, witness *rel.Instance) (bool, error) {
	c := &st.comp[di]
	progressed := false
	for k := 0; k < st.ntriggers; k++ {
		trig := st.triggers[k*c.slots : (k+1)*c.slots]
		if c.head.Exists(st.inst, trig, st.opts.Config) {
			// Re-check: an earlier firing in this pass may have
			// satisfied this trigger.
			continue
		}
		if err := st.fire(c, d, trig, witness); err != nil {
			return progressed, err
		}
		progressed = true
	}
	return progressed, nil
}

// fire applies one step of tgd d, compiled as c, for the trigger trig.
// Trigger vectors are consumed exactly once (fireTriggers re-checks
// satisfaction before this call), so the step writes the existential
// slots of trig directly.
func (st *state) fire(c *compiled, d dep.TGD, trig []rel.Value, witness *rel.Instance) error {
	if err := st.ctxErr(); err != nil {
		return err
	}
	if st.steps >= st.budget {
		return fmt.Errorf("%w (after %d steps, chasing %s)", ErrBudgetExhausted, st.steps, d.Label)
	}
	st.steps++
	if len(c.exist) > 0 {
		if witness == nil {
			for _, s := range c.exist {
				trig[s] = st.nulls.Fresh()
			}
		} else if !c.head.Exists(witness, trig, st.opts.Config) {
			// Solution-aware step: extend the trigger homomorphism into
			// the witness, which satisfies the tgd, so an extension is
			// guaranteed when the trigger facts lie inside the witness.
			return fmt.Errorf("chase: solution-aware step for %s found no witness extension; witness does not satisfy the tgds", d.Label)
		}
	}
	for _, a := range c.heads {
		st.inst.AddOwnedTuple(a.Rel, a.AppendTuple(make(rel.Tuple, 0, len(a.Args)), trig))
	}
	return nil
}

// merge applies one egd merge step, replacing the null `from` by `to`
// throughout the instance. The union-find engine records the class
// merge, rewrites the affected tuples in place, and appends the
// rewritten slots to the change log (in relation-name order, so the log
// is deterministic).
func (st *state) merge(from, to rel.Value) {
	st.merges++
	st.egdFired = true
	if st.uf == nil {
		st.uf = rel.NewUnionFind()
	}
	st.uf.Union(from, to)
	changed := st.inst.MergeValue(from, to)
	names := make([]string, 0, len(changed))
	for name := range changed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, idx := range changed[name] {
			st.changedLog = append(st.changedLog, changeEntry{rel: name, idx: idx})
		}
	}
}

// egdPass applies egd steps until egd di has no active trigger or the
// chase fails. Each scan searches only the bindings past di's
// watermark: a binding over old, unrewritten tuples was clean at the
// watermark and still is, so the first violation in ForEach order is
// the first delta-touching one. A merge can create a violation before
// the current scan position (the rewritten tuples join differently),
// so the pass restarts its scan after every step; the rewrites are on
// the change log past the watermark, so the restart sees them. The
// in-place merge keeps live tuples in the order a full rebuild would
// leave them, so the merge sequence matches a chase that rebuilds the
// instance per merge (oracle.Chase) exactly.
func (st *state) egdPass(di int, d dep.EGD) (progressed, failed bool, err error) {
	c := &st.comp[di]
	for {
		var l, r rel.Value
		found := false
		c.body.EnumerateDeltaSpec(st.inst, st.vals[:c.slots], st.deltaSpec(di), st.opts.Config, func(vals []rel.Value) bool {
			if vals[c.left] != vals[c.right] {
				l, r = vals[c.left], vals[c.right]
				found = true
				return false
			}
			return true
		})
		if !found {
			return progressed, false, nil
		}
		if err := st.ctxErr(); err != nil {
			return progressed, false, err
		}
		if st.steps >= st.budget {
			return progressed, false, fmt.Errorf("%w (after %d steps, chasing %s)", ErrBudgetExhausted, st.steps, d.Label)
		}
		st.steps++
		if l.IsConst() && r.IsConst() {
			return progressed, true, nil
		}
		// Replace a null by the other value; if one side is a constant
		// the null is replaced by the constant.
		from, to := l, r
		if from.IsConst() {
			from, to = to, from
		}
		st.merge(from, to)
		progressed = true
	}
}
