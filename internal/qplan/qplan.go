// Package qplan compiles certain-answer computation for C_tract
// settings into direct evaluation plans over the source and target
// instances, skipping chase materialization entirely.
//
// The idea follows the query-rewriting view of "Laconic schema
// mappings": instead of chasing I into a canonical target J_can and
// enumerating image solutions per request, the mapping itself is
// compiled once. Every target atom of a UCQ is unfolded through the
// source-to-target tgds (LAV-style view unfolding) or matched against
// the stored target instance J directly, producing a union of
// source-side conjunctive plans whose evaluation over the indexed
// instances returns exactly the chase-backed certain answers.
//
// # The compilable fragment
//
// Compilation is sound for settings where the canonical target's
// labeled nulls are inert: they can never be forced to constants by the
// target-to-source dependencies. Concretely a setting compiles when
//
//  1. it is in C_tract (Definition 9) — in particular Σt = ∅ and there
//     are no disjunctive target-to-source dependencies, and
//  2. no target-to-source tgd mentions a marked variable (Definition 8)
//     in its head: variables that can bind labeled nulls of J_can never
//     flow into a Σts obligation over the source.
//
// Under (1)+(2), and for null-free instances I and J, whether a Σts
// trigger is satisfied in I depends only on constant bindings, so the
// identity assignment (keep every null fresh) is a solution whenever
// any assignment is. Solution existence therefore compiles to violation
// probes — unfoldings of each Σts body whose head-variable rows are
// checked against I — and certain answers of a UCQ q reduce to
// evaluating the unfolded q over (I, J): for Boolean queries any match
// settles certainty, for open queries exactly the matches whose head
// values are constants survive, so disjuncts that bind a head variable
// to an existential position of an st-tgd are dropped at compile time
// (DESIGN.md §15 gives the full argument).
//
// Settings or instances outside the fragment fall back to the
// enumeration path of package certain with a typed reason, mirroring
// the chase.Fallback* taxonomy.
package qplan

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/par"
	"repro/internal/rel"
)

// Fallback reasons explain why the compiled path declined and the
// chase-backed enumeration must run instead. They are stable strings,
// suitable as metric labels.
const (
	// FallbackNone means the compiled path applies.
	FallbackNone = ""
	// FallbackNotCtract: the setting is outside C_tract (Definition 9).
	FallbackNotCtract = "not-ctract"
	// FallbackTargetDeps: the setting has target constraints (Σt ≠ ∅).
	FallbackTargetDeps = "target-deps"
	// FallbackDisjunctive: the setting has disjunctive Σts dependencies.
	FallbackDisjunctive = "disjunctive-ts"
	// FallbackMarkedHead: some Σts tgd mentions a marked variable in its
	// head, so labeled nulls of the canonical target could be forced to
	// constants — the unfolding would be unsound.
	FallbackMarkedHead = "ts-marked-head"
	// FallbackPlanSize: the unfolding would exceed the disjunct budget.
	FallbackPlanSize = "plan-too-large"
	// FallbackNulls: an instance contains labeled nulls; the compiled
	// equivalence is proved for null-free inputs only.
	FallbackNulls = "instance-nulls"
)

// FallbackReasons lists every non-empty fallback reason, for metric
// label enumeration.
var FallbackReasons = []string{
	FallbackNotCtract,
	FallbackTargetDeps,
	FallbackDisjunctive,
	FallbackMarkedHead,
	FallbackPlanSize,
	FallbackNulls,
}

// maxDisjuncts bounds the size of a compiled plan: the unfolding of a
// single conjunctive query (or Σts body) may not exceed this many
// origin assignments.
const maxDisjuncts = 4096

// FallbackError reports that a setting, query, or instance pair is
// outside the compilable fragment. It is advisory, not fatal: callers
// fall back to the enumeration path and may surface Reason as a metric
// label.
type FallbackError struct {
	// Reason is one of the Fallback* constants (never FallbackNone).
	Reason string
	// Detail names the offending dependency or instance.
	Detail string
}

func (e *FallbackError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("qplan: not compilable: %s", e.Reason)
	}
	return fmt.Sprintf("qplan: not compilable: %s (%s)", e.Reason, e.Detail)
}

// ReasonOf extracts the fallback reason from an error returned by the
// compile or eval entry points; it returns FallbackNone for nil and for
// errors that are not fallbacks (which callers should propagate).
func ReasonOf(err error) string {
	var fe *FallbackError
	if errors.As(err, &fe) {
		return fe.Reason
	}
	return FallbackNone
}

// ClassifySetting reports why the setting is outside the compilable
// fragment, or FallbackNone when CompileSetting will succeed.
func ClassifySetting(s *core.Setting) string {
	if err := classifySetting(s); err != nil {
		return ReasonOf(err)
	}
	return FallbackNone
}

func classifySetting(s *core.Setting) error {
	if len(s.T) > 0 {
		return &FallbackError{Reason: FallbackTargetDeps, Detail: s.Name}
	}
	if len(s.TSDisj) > 0 {
		return &FallbackError{Reason: FallbackDisjunctive, Detail: s.Name}
	}
	if !dep.ClassifyCtract(s.ST, s.TS, nil).InCtract {
		return &FallbackError{Reason: FallbackNotCtract, Detail: s.Name}
	}
	markedPos := dep.MarkedPositions(s.ST)
	for _, d := range s.TS {
		headVars := make(map[string]bool)
		for _, a := range d.Head {
			for _, v := range a.Vars() {
				headVars[v] = true
			}
		}
		for _, a := range d.Body {
			for i, t := range a.Args {
				if !t.IsConst && headVars[t.Name] && markedPos[dep.Position{Rel: a.Rel, Idx: i}] {
					return &FallbackError{
						Reason: FallbackMarkedHead,
						Detail: fmt.Sprintf("%s: variable %s", d.Label, t.Name),
					}
				}
			}
		}
	}
	return nil
}

// origin is one way a target atom can hold in the canonical target:
// matched against the stored target instance J, or produced by the
// atom-th head conjunct of the tgd-th source-to-target tgd.
type origin struct {
	tgd  int
	atom int
}

// probe is the compiled violation check of one Σts tgd: the unfolded
// body enumerates rows of head-variable bindings; each row must extend
// to a homomorphism of the head into I. head is the head compiled with
// the head variables pre-bound in the first slots, in headVars order,
// as the rows hold them.
type probe struct {
	label     string
	headVars  []string
	headAtoms []dep.Atom
	head      *hom.Conj
	disjuncts []disjunct
}

// SettingPlan is the per-setting half of a compiled plan: the origin
// table for unfolding and the Σts violation probes deciding solution
// existence. It is immutable after CompileSetting and safe for
// concurrent use.
type SettingPlan struct {
	s *core.Setting
	// origins maps each target relation to the st-tgd head conjuncts
	// producing it.
	origins map[string][]origin
	// universal[d] is the universal-variable set of s.ST[d].
	universal []map[string]bool
	probes    []probe
	// headConsts holds the constants of the Σst heads, nil when there
	// are none. A query constant in it stays literal in the shape and
	// the plan; every other one is a param (see AppendShape), which
	// therefore never equals a constant the unfolding can meet, so the
	// unifier's rule that a param meets a literal only to prune is
	// exact.
	headConsts map[string]bool
}

// CompileSetting compiles the setting's origin table and Σts probes,
// or returns a *FallbackError when the setting is outside the fragment.
func CompileSetting(s *core.Setting) (*SettingPlan, error) {
	if err := classifySetting(s); err != nil {
		return nil, err
	}
	sp := &SettingPlan{
		s:         s,
		origins:   make(map[string][]origin),
		universal: make([]map[string]bool, len(s.ST)),
	}
	for di, d := range s.ST {
		uni := make(map[string]bool)
		for _, v := range d.UniversalVars() {
			uni[v] = true
		}
		sp.universal[di] = uni
		for ai, a := range d.Head {
			sp.origins[a.Rel] = append(sp.origins[a.Rel], origin{tgd: di, atom: ai})
			for _, t := range a.Args {
				if t.IsConst {
					if sp.headConsts == nil {
						sp.headConsts = make(map[string]bool)
					}
					sp.headConsts[t.Name] = true
				}
			}
		}
	}
	for _, d := range s.TS {
		headVars := headUniversalVars(d)
		headTerms := make([]dep.Term, len(headVars))
		for i, v := range headVars {
			headTerms[i] = dep.Var(v)
		}
		ds, _, err := sp.unfold(headTerms, d.Body, false, nil)
		if err != nil {
			return nil, err
		}
		var vars hom.Vars
		for _, v := range headVars {
			vars.Slot(v)
		}
		sp.probes = append(sp.probes, probe{
			label:     d.Label,
			headVars:  headVars,
			headAtoms: d.Head,
			head:      vars.Compile(d.Head),
			disjuncts: ds,
		})
	}
	return sp, nil
}

// headUniversalVars returns the body variables of d that occur in its
// head, in first-occurrence order of the head.
func headUniversalVars(d dep.TGD) []string {
	body := make(map[string]bool)
	for _, a := range d.Body {
		for _, v := range a.Vars() {
			body[v] = true
		}
	}
	var out []string
	seen := make(map[string]bool)
	for _, a := range d.Head {
		for _, v := range a.Vars() {
			if body[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Setting returns the compiled setting.
func (sp *SettingPlan) Setting() *core.Setting { return sp.s }

// EvalOptions configures plan evaluation: a canceled Ctx stops the
// evaluation with an error wrapping par.ErrCanceled.
type EvalOptions = par.Config

func canceled(ctx context.Context, what string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("qplan: %s: %w: %w", what, par.ErrCanceled, err)
	}
	return nil
}

var emptyInstance = func() *rel.Instance {
	e := rel.NewInstance()
	e.Freeze()
	return e
}()

func orEmpty(inst *rel.Instance) *rel.Instance {
	if inst == nil {
		return emptyInstance
	}
	return inst
}

// CheckInstances gates evaluation on null-free inputs (the fragment's
// equivalence is proved for null-free I and J only): it returns a
// *FallbackError with reason FallbackNulls when i or j holds a labeled
// null. Callers that take the SOL(P) verdict from elsewhere than
// SolutionExists must still pass this gate before EvalGiven.
func (sp *SettingPlan) CheckInstances(i, j *rel.Instance) error {
	if orEmpty(i).HasNulls() {
		return &FallbackError{Reason: FallbackNulls, Detail: "source instance"}
	}
	if orEmpty(j).HasNulls() {
		return &FallbackError{Reason: FallbackNulls, Detail: "target instance"}
	}
	return nil
}

// SolutionExists decides SOL(P) for (i, j) by running the compiled Σts
// probes: it returns false exactly when some head-variable row of some
// unfolded Σts body has no extension into i. A repeated row is probed
// again: the check is pure, and probing a repeat costs less than
// keeping a set of every row. It returns a *FallbackError when an instance
// contains labeled nulls.
func (sp *SettingPlan) SolutionExists(i, j *rel.Instance, opts EvalOptions) (bool, error) {
	if err := sp.CheckInstances(i, j); err != nil {
		return false, err
	}
	if err := canceled(opts.Ctx, "solution probes"); err != nil {
		return false, err
	}
	i, j = orEmpty(i), orEmpty(j)
	for pi := range sp.probes {
		pb := &sp.probes[pi]
		vals := slotVector(pb.disjuncts, nil)
		hvals := make([]rel.Value, pb.head.Slots())
		for di := range pb.disjuncts {
			d := &pb.disjuncts[di]
			violated := false
			err := d.scan(vals, i, j, opts, "probe scan", func(vals []rel.Value) bool {
				d.head.AppendTuple(hvals[:0], vals) // the row pre-binds the head's first slots
				if !pb.head.Exists(i, hvals, opts) {
					violated = true
					return false
				}
				return true
			})
			if err != nil {
				return false, err
			}
			if violated {
				// A cut-short hom search may report a spurious miss;
				// never turn cancellation into a verdict.
				if cerr := canceled(opts.Ctx, "solution probe"); cerr != nil {
					return false, cerr
				}
				return false, nil
			}
		}
	}
	return true, nil
}

// Plan is a compiled certain-answer plan for one UCQ over one setting,
// bound to the UCQ's constants. It is immutable after compilation and
// safe for concurrent use.
type Plan struct {
	*shape
	// params holds the constants the shape's param terms stand for, in
	// slot order; inline backs it for up to four constants, so binding
	// a plan takes one allocation.
	params []rel.Value
	inline [4]rel.Value
}

// shape is the compiled part of a plan, shared by every query of one
// shape (see AppendShape): its constant terms either hold their value
// (a Σst head constant) or name a slot of the binding plan's params.
type shape struct {
	sp        *SettingPlan
	name      string
	boolean   bool
	headArity int
	disjuncts []disjunct
	// dropped counts the unfolded disjuncts discarded because they bind
	// a head variable to an existential (null-producing) position.
	dropped int
}

// CompileQuery unfolds the UCQ into a plan over the setting, bound to
// the UCQ's constants. The query must validate against the setting's
// target schema. The compiled shape serves every query with the same
// AppendShape text (see Bind).
func (sp *SettingPlan) CompileQuery(q certain.UCQ) (*Plan, error) {
	if err := q.Validate(sp.s.Target); err != nil {
		return nil, err
	}
	sh := &shape{
		sp:        sp,
		name:      q[0].Name,
		boolean:   q[0].IsBoolean(),
		headArity: len(q[0].Head),
	}
	params := make(map[string]int) // constant text → slot, in first-occurrence order
	sp.forEachConst(q, func(c string) {
		if _, ok := params[c]; !ok {
			params[c] = len(params)
		}
	})
	seen := make(map[string]bool)
	for _, cq := range q {
		headTerms := make([]dep.Term, len(cq.Head))
		for i, v := range cq.Head {
			headTerms[i] = dep.Var(v)
		}
		ds, dropped, err := sp.unfold(headTerms, cq.Body, !sh.boolean, params)
		if err != nil {
			return nil, err
		}
		sh.dropped += dropped
		for _, d := range ds {
			if seen[d.key] {
				continue
			}
			seen[d.key] = true
			sh.disjuncts = append(sh.disjuncts, d)
		}
	}
	return (&Plan{shape: sh}).Bind(q), nil
}

// forEachConst calls fn on the text of every param constant of q (one
// that is not a Σst head constant), in the order AppendShape writes
// them.
func (sp *SettingPlan) forEachConst(q certain.UCQ, fn func(string)) {
	for _, cq := range q {
		for _, a := range cq.Body {
			for _, t := range a.Args {
				if t.IsConst && !sp.headConsts[t.Name] {
					fn(t.Name)
				}
			}
		}
	}
}

// Bind returns the plan of q, a query with the same AppendShape text as
// the one p was compiled from, bound to q's constants.
func (p *Plan) Bind(q certain.UCQ) *Plan {
	b := &Plan{shape: p.shape}
	b.params = b.inline[:0]
	p.sp.forEachConst(q, func(c string) {
		if v := rel.Const(c); !slices.Contains(b.params, v) {
			b.params = append(b.params, v)
		}
	})
	return b
}

// AppendShape appends the plan-cache key text of q to buf and returns
// the extended buffer: q's rule text, one line per disjunct, with each
// constant that is not a Σst head constant written as its slot $k,
// numbered by first occurrence so that equal constants share a slot.
// Head constants stay literal, since a query constant can meet one
// through a universal variable, as R('a',y), T(y) meets heads R(x,x)
// and T('c'). Queries with equal text share one compiled shape, which
// Bind binds to each query's constants; parsed identifiers never start
// with '$'. The text fits a stack buffer for a point query, so building
// a key allocates nothing.
func (sp *SettingPlan) AppendShape(buf []byte, q certain.UCQ) []byte {
	var seenArr [8]string
	seen := seenArr[:0]
	for _, cq := range q {
		buf = append(buf, cq.Name...)
		if len(cq.Head) > 0 {
			buf = append(buf, '(')
			for i, h := range cq.Head {
				if i > 0 {
					buf = append(buf, ", "...)
				}
				buf = append(buf, h...)
			}
			buf = append(buf, ')')
		}
		buf = append(buf, " :- "...)
		for i, a := range cq.Body {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = append(append(buf, a.Rel...), '(')
			for k, t := range a.Args {
				if k > 0 {
					buf = append(buf, ", "...)
				}
				switch {
				case !t.IsConst:
					buf = append(buf, t.Name...)
				case sp.headConsts[t.Name]:
					buf = append(append(append(buf, '\''), t.Name...), '\'')
				default:
					slot := slices.Index(seen, t.Name)
					if slot < 0 {
						slot = len(seen)
						seen = append(seen, t.Name)
					}
					buf = strconv.AppendInt(append(buf, '$'), int64(slot), 10)
				}
			}
			buf = append(buf, ')')
		}
		buf = append(buf, '\n')
	}
	return buf
}

// Compile is the one-shot form: CompileSetting followed by
// CompileQuery.
func Compile(s *core.Setting, q certain.UCQ) (*Plan, error) {
	sp, err := CompileSetting(s)
	if err != nil {
		return nil, err
	}
	return sp.CompileQuery(q)
}

// IsBoolean reports whether the compiled query has an empty head.
func (p *Plan) IsBoolean() bool { return p.boolean }

// Name returns the query name the plan was compiled from.
func (p *Plan) Name() string { return p.name }

// SettingPlan returns the per-setting half the plan was compiled
// against.
func (p *Plan) SettingPlan() *SettingPlan { return p.sp }

// Eval computes the certain-answer result for (i, j): it runs the
// solution probes, then evaluates the compiled query. The result is
// byte-identical to the chase-backed certain.Boolean / certain.Answers
// (SolutionsExamined excepted: the compiled path examines none).
func (p *Plan) Eval(i, j *rel.Instance, opts EvalOptions) (certain.Result, error) {
	ok, err := p.sp.SolutionExists(i, j, opts)
	if err != nil {
		return certain.Result{}, err
	}
	return p.EvalGiven(ok, i, j, opts)
}

// EvalGiven is Eval with the solution-existence verdict supplied by the
// caller, so a batch of queries over one instance pair runs the probes
// once. The caller must have obtained solutionExists for the same
// (i, j), from SolutionExists or from any other decision of SOL(P),
// and must have vetted the instances as null-free (SolutionExists does
// so; otherwise CheckInstances).
func (p *Plan) EvalGiven(solutionExists bool, i, j *rel.Instance, opts EvalOptions) (certain.Result, error) {
	if !solutionExists {
		// No solution: a Boolean query is vacuously certain; package
		// certain leaves the Certain field untouched (false) for open
		// queries, and the compiled result mirrors it bit for bit.
		return certain.Result{SolutionExists: false, Certain: p.boolean}, nil
	}
	if err := canceled(opts.Ctx, "plan eval"); err != nil {
		return certain.Result{}, err
	}
	i, j = orEmpty(i), orEmpty(j)
	res := certain.Result{SolutionExists: true, Certain: p.boolean}
	if p.boolean {
		found, err := p.holds(i, j, opts)
		if err != nil {
			return res, err
		}
		res.Certain = found
		return res, nil
	}
	answers, err := p.answers(i, j, opts)
	if err != nil {
		return res, err
	}
	res.Answers = answers
	return res, nil
}

// slotVector returns a slot vector long enough for every disjunct of
// ds, its first slots holding params.
func slotVector(ds []disjunct, params []rel.Value) []rel.Value {
	n := len(params)
	for di := range ds {
		n = max(n, ds[di].conj.Slots())
	}
	vals := make([]rel.Value, n)
	copy(vals, params)
	return vals
}

// scan enumerates the matches of d over (i, j) on hom's searcher,
// calling fn with each match's slot vector (vals, whose param slots the
// caller filled) until fn returns false. The searcher reports a
// canceled context as a stop, so a stopped scan under a done context is
// an error naming what was scanning — never a truncated result.
func (d *disjunct) scan(vals []rel.Value, i, j *rel.Instance, opts EvalOptions, what string, fn func([]rel.Value) bool) error {
	if d.conj.ForEachIn(j, i, vals, opts, fn) {
		return nil
	}
	return canceled(opts.Ctx, what)
}

// holds reports whether any disjunct matches (Boolean certainty).
func (p *Plan) holds(i, j *rel.Instance, opts EvalOptions) (bool, error) {
	vals := slotVector(p.disjuncts, p.params)
	found := false
	for di := range p.disjuncts {
		err := p.disjuncts[di].scan(vals, i, j, opts, "plan scan", func([]rel.Value) bool {
			found = true
			return false
		})
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}

// answers evaluates every disjunct and returns the deduplicated head
// rows, sorted as in package certain. All rows are ground by
// construction (null-producing disjuncts were dropped at compile time).
// The scans write rows back to back into one buffer, and the distinct
// ones are returned as capacity-capped windows of it, so a row costs no
// allocation of its own.
func (p *Plan) answers(i, j *rel.Instance, opts EvalOptions) ([]rel.Tuple, error) {
	vals := slotVector(p.disjuncts, p.params)
	var rows []rel.Value
	for di := range p.disjuncts {
		d := &p.disjuncts[di]
		err := d.scan(vals, i, j, opts, "plan scan", func(vals []rel.Value) bool {
			rows = d.head.AppendTuple(rows, vals)
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	seen := make(map[rel.TupleKey]bool)
	var out []rel.Tuple
	for k, w := 0, p.headArity; k < len(rows); k += w {
		t := rel.Tuple(rows[k : k+w : k+w])
		if key := rel.KeyOf(t); !seen[key] {
			seen[key] = true
			out = append(out, t)
		}
	}
	certain.SortAnswers(out)
	return out, nil
}

// String renders the plan for offline inspection (pdx compile): the
// normalized source-side disjuncts, the dropped-disjunct count, and the
// solution probes shared by every plan of the setting.
func (p *Plan) String() string {
	var b strings.Builder
	kind := "open"
	if p.boolean {
		kind = "boolean"
	}
	fmt.Fprintf(&b, "plan %s: %s, head arity %d, %d disjunct(s)", p.name, kind, p.headArity, len(p.disjuncts))
	if p.dropped > 0 {
		fmt.Fprintf(&b, ", %d null-head disjunct(s) dropped", p.dropped)
	}
	b.WriteString("\n")
	for i := range p.disjuncts {
		fmt.Fprintf(&b, "  %s%s\n", p.name, p.disjuncts[i].renderWith(nil, p.params))
	}
	for pi := range p.sp.probes {
		pb := &p.sp.probes[pi]
		for di := range pb.disjuncts {
			fmt.Fprintf(&b, "  probe %s: check", pb.label)
			for ai, a := range pb.headAtoms {
				if ai > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, " %s", a)
			}
			fmt.Fprintf(&b, " over%s\n", pb.disjuncts[di].renderWith(pb.headVars, nil))
		}
	}
	return b.String()
}
