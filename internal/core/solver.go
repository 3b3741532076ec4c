package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/chase"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/par"
	"repro/internal/rel"
)

// ErrSearchBudget is returned when the generic solver exceeds its node
// budget before deciding. On settings outside C_tract the search is
// exponential in the worst case (Theorem 3), so a budget is essential.
var ErrSearchBudget = errors.New("core: generic solver search budget exhausted")

// ErrCanceled is the identity of context-cancellation errors from both
// solvers (and, transitively, the chase runs they issue). It is the
// execution layer's shared sentinel; errors wrapping it also wrap the
// context's own error, so errors.Is matches context.DeadlineExceeded
// and context.Canceled as well.
var ErrCanceled = par.ErrCanceled

// canceled returns a wrapped cancellation error when ctx is non-nil and
// done, nil otherwise.
func canceled(ctx context.Context, what string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s: %w: %w", what, ErrCanceled, err)
	}
	return nil
}

// SolveOptions configures the generic solver. The embedded execution
// config reaches every phase: the solver checks Ctx at every search
// node and hands the config to the chase runs and homomorphism searches
// it issues.
type SolveOptions struct {
	par.Config
	// MaxNodes bounds the number of search nodes; 0 means no bound.
	MaxNodes int64
}

// SolveStats reports search effort.
type SolveStats struct {
	// Nodes is the number of search-tree nodes visited.
	Nodes int64
	// NullCount is the number of labeled nulls of J_can the search
	// assigned.
	NullCount int
	// DomainSize is the number of candidate values per null (including
	// the keep-as-fresh option).
	DomainSize int
	// Solutions is the number of accepting leaves visited (1 when the
	// search stops at the first solution).
	Solutions int64
}

// ExistsSolutionGeneric decides SOL(P) with a complete backtracking
// search and returns a witness solution when one exists.
//
// Method. Let (I, J_can) be the restricted chase of (I, J) with Σst.
// By Lemma 3 of the paper, every solution J_sol admits a homomorphism
// g : J_can -> J_sol that is the identity on constants — and the image
// g(J_can) is itself a solution: it contains J (J ⊆ J_can is null-free),
// satisfies Σst (homomorphic images of the chase result do), and
// satisfies Σts because g(J_can) ⊆ J_sol and target-to-source
// dependencies are inherited by subsets (their heads are over the fixed
// source instance I). Moreover the image may be normalized so that every
// null of J_can is either kept as itself (a fresh value) or mapped to a
// value of adom(I) ∪ adom(J): mapping a null to any other value can be
// replaced by keeping it fresh without breaking any constraint, because
// a Σts trigger whose head position carries a non-adom(I) value is
// unsatisfiable either way. Hence
//
//	SOL(P)  ⇔  some assignment h : nulls(J_can) -> adom(I) ∪ adom(J) ∪ {keep}
//	           makes (I, h(J_can)) satisfy Σts.
//
// With target constraints Σt consisting of egds and full tgds, each
// assignment is additionally chased with Σt (full tgds create no new
// nulls; egds merge or fail) and all constraints are re-checked on the
// result; the same subset/normalization argument shows completeness for
// that class. For Σt with existential tgds the solver is sound but may
// miss solutions requiring fresh Σt witnesses to be merged; it reports
// such settings via ErrUnsupportedTargetTGDs unless they are weakly
// acyclic, in which case it proceeds (and remains sound).
//
// The search is exponential in the number of nulls of J_can in the worst
// case — the NP behaviour Theorem 3 proves unavoidable (unless P = NP).
func ExistsSolutionGeneric(s *Setting, i, j *rel.Instance, opts SolveOptions) (bool, *rel.Instance, *SolveStats, error) {
	ct, err := ChaseCanonicalTarget(s, i, j, opts)
	if err != nil {
		return false, nil, nil, err
	}
	return ExistsSolutionGenericFrom(s, i, j, ct, opts)
}

// ForEachImageSolution enumerates the image solutions h(J_can) (chased
// with Σt when present) that satisfy all constraints, calling fn for
// each; fn returns false to stop. For Σt = ∅ this family is a complete
// set of "minimal-information" solutions: every solution contains one of
// them, which is what the certain-answers evaluator relies on for
// monotone queries.
func ForEachImageSolution(s *Setting, i, j *rel.Instance, opts SolveOptions, fn func(*rel.Instance) bool) (*SolveStats, error) {
	ct, err := ChaseCanonicalTarget(s, i, j, opts)
	if err != nil {
		return nil, err
	}
	return ForEachImageSolutionFrom(s, i, j, ct, opts, fn)
}

// ErrUnsupportedTargetTGDs reports target constraints outside the class
// the generic solver is complete for.
var ErrUnsupportedTargetTGDs = errors.New("core: Σt has existential tgds that are not weakly acyclic; the generic solver cannot handle them")

// imageSearch is the backtracking state for the assignment search over
// the nulls of J_can.
type imageSearch struct {
	s     *Setting
	i     *rel.Instance
	j     *rel.Instance
	opts  SolveOptions
	copts chase.Options
	stats SolveStats

	nulls  []rel.Value // nulls of J_can in assignment order
	domain []rel.Value // shared candidate constants (adom(I) [∪ adom(J)])

	// facts of J_can and their null structure
	facts     []rel.Fact
	factNulls [][]int // indexes into nulls, per fact
	readyAt   [][]int // facts becoming fully assigned at null index k

	pruneOnNulls bool                    // Σt has no egds (see newFactViolation)
	assignment   map[rel.Value]rel.Value // null -> value (may map null to itself)
	cur          *rel.Instance           // grounded target facts assigned so far
	levelAdded   [][]int                 // indexes into facts grounded per level, for LIFO undo
	producer     map[string][]int        // per relation, the index into facts of each tuple of cur
	stopped      bool

	// through[R] lists the Σts dependencies compiled around each body
	// atom over R, in dependency then atom order (see newFactViolation);
	// vals, tup and resp are the scratch of their searches.
	through map[string][]through
	vals    []rel.Value
	tup     rel.Tuple
	resp    []int
}

// through is one Σts dependency compiled to slots around one body atom,
// the pivot that a new fact is unified with: the pivot's variables take
// the first slots, the rest of the body is compiled with them
// pre-bound, and each head (one for a tgd, one per disjunct of a
// disjunctive tgd) with every body slot pre-bound. The layout has
// nbody body slots, then the heads' existential slots, slots in all.
type through struct {
	pivot        hom.Atom
	rest         *hom.Conj
	body         []hom.Atom
	heads        []*hom.Conj
	nbody, slots int
}

// compileThrough compiles body around its atom k, with heads as the
// dependency's alternative heads.
func compileThrough(body []dep.Atom, k int, heads [][]dep.Atom) through {
	var vars hom.Vars
	th := through{pivot: vars.Atoms(body[k : k+1])[0]}
	rest := make([]dep.Atom, 0, len(body)-1)
	rest = append(append(rest, body[:k]...), body[k+1:]...)
	th.rest = vars.Compile(rest)
	th.nbody = vars.Len()
	th.body = vars.Atoms(body)
	for _, h := range heads {
		th.heads = append(th.heads, hom.NewConj(vars.Atoms(h), th.nbody))
	}
	th.slots = vars.Len()
	return th
}

// noConflict marks a subtree that produced solutions (or whose failures
// carry no usable conflict information); no candidate skipping applies.
const noConflict = int(^uint(0) >> 1)

func newImageSearch(s *Setting, i, j, jcan *rel.Instance, opts SolveOptions, copts chase.Options) *imageSearch {
	sv := &imageSearch{
		s:            s,
		i:            i,
		j:            j,
		opts:         opts,
		copts:        copts,
		pruneOnNulls: len(dep.EGDs(s.T)) == 0,
		assignment:   make(map[rel.Value]rel.Value),
		cur:          rel.NewInstance(),
		producer:     make(map[string][]int),
		through:      make(map[string][]through),
		resp:         make([]int, 0, 8),
	}
	addThrough := func(body []dep.Atom, heads [][]dep.Atom) {
		for k, a := range body {
			th := compileThrough(body, k, heads)
			sv.through[a.Rel] = append(sv.through[a.Rel], th)
			if th.slots > len(sv.vals) {
				sv.vals = make([]rel.Value, th.slots)
			}
		}
	}
	for _, d := range s.TS {
		addThrough(d.Body, [][]dep.Atom{d.Head})
	}
	for _, d := range s.TSDisj {
		addThrough(d.Body, d.Disjuncts)
	}

	nullSet := jcan.Nulls()
	for n := range nullSet {
		sv.nulls = append(sv.nulls, n)
	}
	sort.Slice(sv.nulls, func(a, b int) bool { return sv.nulls[a].Less(sv.nulls[b]) })
	nullIdx := make(map[rel.Value]int, len(sv.nulls))
	for idx, n := range sv.nulls {
		nullIdx[n] = idx
	}

	// Candidate constants: adom(I), plus adom(J) when target constraints
	// may force J-values onto nulls (see the completeness argument in
	// the ExistsSolutionGeneric doc comment).
	domSet := make(map[rel.Value]bool)
	for v := range i.ActiveDomain() {
		if v.IsConst() {
			domSet[v] = true
		}
	}
	if len(s.T) > 0 {
		for v := range j.ActiveDomain() {
			if v.IsConst() {
				domSet[v] = true
			}
		}
	}
	for v := range domSet {
		sv.domain = append(sv.domain, v)
	}
	sort.Slice(sv.domain, func(a, b int) bool { return sv.domain[a].Less(sv.domain[b]) })

	sv.facts = jcan.Facts()
	sv.factNulls = make([][]int, len(sv.facts))
	sv.readyAt = make([][]int, len(sv.nulls)+1)
	for fi, f := range sv.facts {
		maxIdx := -1
		seen := map[int]bool{}
		for _, v := range f.Args {
			if v.IsNull() {
				k := nullIdx[v]
				if !seen[k] {
					seen[k] = true
					sv.factNulls[fi] = append(sv.factNulls[fi], k)
				}
				if k > maxIdx {
					maxIdx = k
				}
			}
		}
		sv.readyAt[maxIdx+1] = append(sv.readyAt[maxIdx+1], fi)
	}

	sv.stats.NullCount = len(sv.nulls)
	sv.stats.DomainSize = len(sv.domain) + 1
	return sv
}

func (sv *imageSearch) run(fn func(*rel.Instance) bool) error {
	// Ground facts with no nulls (ready at level 0).
	if ok, _ := sv.groundLevel(0); !ok {
		return nil // ground facts alone violate Σts: no image can fix it
	}
	_, err := sv.dfs(0, fn)
	return err
}

// dfs assigns the null at index k and recurses. Facts become grounded at
// the level of their last-assigned null; each newly grounded batch is
// checked incrementally against Σts unless pruning is disabled.
//
// The return value drives conflict-directed backjumping. When the
// subtree rooted at k fails exhaustively, dfs returns the largest null
// index j < k whose assignment participated in some violated trigger
// (-1 when every conflict involved only null k and the fixed instances);
// callers above level j may then skip their remaining candidates,
// because no choice for nulls in (j, k) can remove the conflicts. When
// the subtree found a solution — or failed in a way that carries no
// conflict information, such as a leaf-level Σt check — dfs returns
// noConflict and no skipping happens. The backjump is sound for full
// enumeration too: a conflict confined to nulls <= j persists under any
// values of the skipped nulls, so the skipped subtrees are empty.
func (sv *imageSearch) dfs(k int, fn func(*rel.Instance) bool) (int, error) {
	if sv.stopped {
		return noConflict, nil
	}
	if err := canceled(sv.opts.Ctx, "generic solver"); err != nil {
		return noConflict, fmt.Errorf("%w (after %d nodes)", err, sv.stats.Nodes)
	}
	if sv.opts.MaxNodes > 0 && sv.stats.Nodes >= sv.opts.MaxNodes {
		return noConflict, fmt.Errorf("%w (after %d nodes)", ErrSearchBudget, sv.stats.Nodes)
	}
	sv.stats.Nodes++

	if k == len(sv.nulls) {
		return noConflict, sv.leaf(fn)
	}
	n := sv.nulls[k]
	best := -1
	sawNoConflict := false
	// Candidates: every adom constant, then keep-as-fresh.
	for ci := 0; ci <= len(sv.domain); ci++ {
		var v rel.Value
		if ci < len(sv.domain) {
			v = sv.domain[ci]
		} else {
			v = n // keep as fresh
		}
		sv.assignment[n] = v
		conf := noConflict
		local := false
		var err error
		if ok, resp := sv.groundLevel(k + 1); !ok {
			// Local violation: the trigger involved the fact(s) grounded
			// by this assignment, so null k is responsible together with
			// the earlier nulls of the trigger.
			local = true
			conf = maxBelow(resp, k)
		} else {
			conf, err = sv.dfs(k+1, fn)
		}
		sv.ungroundLevel(k + 1)
		delete(sv.assignment, n)
		if err != nil {
			return noConflict, err
		}
		if sv.stopped {
			return noConflict, nil
		}
		switch {
		case conf == noConflict:
			sawNoConflict = true
		case local || conf == k:
			// This candidate failed for a reason involving null k
			// (directly, or a child exhausted with conflicts reaching
			// our null): other candidates may still succeed. Track the
			// deepest earlier null implicated.
			bound := conf
			if !local {
				// Child reported k; which earlier nulls participated is
				// unknown, so assume all of them.
				bound = k - 1
			}
			if bound > best {
				best = bound
			}
		default:
			// conf < k from a child: the deeper exhaustion never
			// involved null k, so it repeats for every remaining
			// candidate — skip them (unless earlier candidates already
			// produced solutions, in which case keep enumerating).
			if conf > best {
				best = conf
			}
			if !sawNoConflict {
				return best, nil
			}
			if k-1 > best {
				best = k - 1 // mixed outcome: no skipping above
			}
		}
	}
	if sawNoConflict {
		return noConflict, nil
	}
	return best, nil
}

func maxBelow(resp []int, k int) int {
	best := -1
	for _, r := range resp {
		if r < k && r > best {
			best = r
		}
	}
	return best
}

// groundLevel grounds the facts that become fully assigned at level k,
// adds them to cur, and checks each new fact's Σts triggers. On
// a violation it returns false together with the responsible null
// indexes of the violated trigger. Grounded facts are tracked per level
// for LIFO undo.
func (sv *imageSearch) groundLevel(k int) (bool, []int) {
	added := sv.levelAdds(k)
	*added = (*added)[:0]
	okAll := true
	var resp []int
	for _, fi := range sv.readyAt[k] {
		f := sv.facts[fi]
		t := f.Args.Clone()
		for ai, v := range t {
			if v.IsNull() {
				t[ai] = sv.assignment[v]
			}
		}
		if sv.cur.AddOwnedTuple(f.Rel, t) {
			*added = append(*added, fi)
			sv.producer[f.Rel] = append(sv.producer[f.Rel], fi)
			if okAll {
				if viol := sv.newFactViolation(rel.Fact{Rel: f.Rel, Args: t}); viol != nil {
					okAll = false
					resp = viol
					// keep grounding the rest so undo stays uniform
				}
			}
		}
	}
	return okAll, resp
}

func (sv *imageSearch) ungroundLevel(k int) {
	added := sv.levelAdds(k)
	for idx := len(*added) - 1; idx >= 0; idx-- {
		name := sv.facts[(*added)[idx]].Rel
		sv.cur.RemoveLastTuple(name)
		sv.producer[name] = sv.producer[name][:len(sv.producer[name])-1]
	}
	*added = (*added)[:0]
}

// levelAdds returns the per-level list of facts added, growing the
// backing store on demand.
func (sv *imageSearch) levelAdds(k int) *[]int {
	for len(sv.levelAdded) <= k {
		sv.levelAdded = append(sv.levelAdded, nil)
	}
	return &sv.levelAdded[k]
}

// newFactViolation checks every Σts trigger that uses the new fact: the
// body homomorphisms of each target-to-source dependency in which some
// body atom is mapped exactly onto gf. A violated trigger can never be
// repaired later (facts are only added and values never change when Σt
// has no egds), so it prunes the subtree; the responsible null indexes
// of the trigger's facts are returned for conflict-directed
// backjumping. With egds in Σt, only triggers whose values are all
// constants are pruned on (egd chasing could later merge a kept null
// into a constant). Returns nil when every trigger is satisfied; the
// returned slice is scratch, valid until the next call.
func (sv *imageSearch) newFactViolation(gf rel.Fact) []int {
	for ti := range sv.through[gf.Rel] {
		if resp := sv.violatedTrigger(&sv.through[gf.Rel][ti], gf.Args); resp != nil {
			return resp
		}
	}
	return nil
}

// violatedTrigger enumerates the body homomorphisms into cur that map
// th's pivot onto the fact with arguments t; on the first trigger that
// satisfies no head in I, it returns the responsible null indexes of
// the trigger's facts (never nil — a violation with no responsible
// nulls yields an empty, non-nil slice).
func (sv *imageSearch) violatedTrigger(th *through, t rel.Tuple) []int {
	if !unify(th.pivot, t, sv.vals) {
		return nil
	}
	var resp []int
	th.rest.ForEach(sv.cur, sv.vals, sv.opts.Config, func(vals []rel.Value) bool {
		if !sv.pruneOnNulls {
			for _, v := range vals[:th.nbody] {
				if v.IsNull() {
					return true // cannot prune: Σt may merge this null later
				}
			}
		}
		// I ⊨ ∃w β(c, w) for some head β; the body slots are the
		// trigger, the heads bind only their existential slots.
		for _, h := range th.heads {
			if h.Exists(sv.i, vals, sv.opts.Config) {
				return true
			}
		}
		resp = sv.triggerResponsibility(th.body, vals)
		return false
	})
	return resp
}

// triggerResponsibility collects the null indexes responsible for the
// presence of the trigger's facts, by grounding each body atom under the
// trigger and looking up the null set of the J_can fact that grounded
// it, through its tuple index in cur. The result is scratch, valid
// until the next call.
func (sv *imageSearch) triggerResponsibility(body []hom.Atom, vals []rel.Value) []int {
	resp := sv.resp[:0]
	for _, a := range body {
		sv.tup = a.AppendTuple(sv.tup[:0], vals)
		fi := sv.producer[a.Rel][sv.cur.Relation(a.Rel).Index(sv.tup)]
		for _, nullIdx := range sv.factNulls[fi] {
			if !slices.Contains(resp, nullIdx) {
				resp = append(resp, nullIdx)
			}
		}
	}
	sv.resp = resp
	return resp
}

// unify matches the pivot atom, whose variables hold the first slots in
// first-occurrence order, against the ground tuple t, writing the
// induced binding into vals. It reports false on a constant mismatch or
// a repeated variable meeting two different values.
func unify(a hom.Atom, t rel.Tuple, vals []rel.Value) bool {
	if len(a.Args) != len(t) {
		return false
	}
	next := 0 // the slot a new variable takes
	for idx, g := range a.Args {
		switch {
		case g.Slot < 0:
			if t[idx] != g.Val {
				return false
			}
		case g.Slot == next:
			vals[g.Slot] = t[idx]
			next++
		case vals[g.Slot] != t[idx]:
			return false
		}
	}
	return true
}

// leaf handles a fully assigned image: with Σt = ∅ the incremental
// checks already guarantee a solution; with Σt nonempty the image is
// chased with Σt and all constraints are re-verified on the result.
func (sv *imageSearch) leaf(fn func(*rel.Instance) bool) error {
	candidate := sv.cur.Clone()
	if len(sv.s.T) > 0 {
		res, err := chase.Run(candidate, sv.s.T, sv.copts)
		if err != nil {
			return fmt.Errorf("core: chasing Σt at leaf: %w", err)
		}
		if res.Failed {
			return nil
		}
		candidate = res.Instance
		if !sv.s.IsSolution(sv.i, sv.j, candidate) {
			return nil
		}
	}
	sv.stats.Solutions++
	if !fn(candidate) {
		sv.stopped = true
	}
	return nil
}
