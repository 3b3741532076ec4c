// Package certain implements the certain-answers semantics of
// Definition 4 of the peer data exchange paper: a tuple is a certain
// answer of a target query q on (I, J) if it belongs to q(J') for every
// solution J' for (I, J).
//
// The evaluator enumerates the image solutions produced by the generic
// solver (package core). For monotone queries — conjunctive queries and
// unions thereof — this is complete: every solution contains an image
// solution, and monotone queries only gain answers on supersets, so the
// intersection of q over the image solutions equals the intersection
// over all solutions. The data complexity is coNP (Theorem 2) and the
// enumeration is exponential in the worst case, matching the
// coNP-hardness of Theorem 3.
package certain

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// CQ is a conjunctive query over the target schema:
//
//	q(head) :- body
//
// An empty head makes the query Boolean. Body variables not in the head
// are existentially quantified.
type CQ struct {
	// Name identifies the query (for files and reports).
	Name string
	// Head lists the answer variables; each must occur in the body.
	Head []string
	// Body is the conjunction of target atoms.
	Body []dep.Atom
}

// Validate checks the query against the target schema.
func (q CQ) Validate(target *rel.Schema) error {
	if len(q.Body) == 0 {
		return fmt.Errorf("certain: query %s has an empty body", q.Name)
	}
	bodyVars := make(map[string]bool)
	for _, a := range q.Body {
		ar, ok := target.Arity(a.Rel)
		if !ok {
			return fmt.Errorf("certain: query %s uses relation %s not in the target schema", q.Name, a.Rel)
		}
		if ar != len(a.Args) {
			return fmt.Errorf("certain: query %s: atom %s has %d arguments, relation has arity %d", q.Name, a, len(a.Args), ar)
		}
		for _, v := range a.Vars() {
			bodyVars[v] = true
		}
	}
	for _, h := range q.Head {
		if !bodyVars[h] {
			return fmt.Errorf("certain: query %s: head variable %s does not occur in the body", q.Name, h)
		}
	}
	return nil
}

// IsBoolean reports whether the query has an empty head.
func (q CQ) IsBoolean() bool { return len(q.Head) == 0 }

// String renders the query in rule syntax.
func (q CQ) String() string {
	s := q.Name
	if len(q.Head) > 0 {
		s += "("
		for i, h := range q.Head {
			if i > 0 {
				s += ", "
			}
			s += h
		}
		s += ")"
	}
	s += " :- "
	for i, a := range q.Body {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s
}

// Eval returns the distinct head tuples of q on the instance. Tuples
// containing labeled nulls are included; callers computing certain
// answers filter them out (certain answers are tuples of constants).
func (q CQ) Eval(inst *rel.Instance, opts hom.Options) []rel.Tuple {
	return UCQ{q}.Eval(inst, opts)
}

// EvalBool reports whether the Boolean query holds on the instance.
func (q CQ) EvalBool(inst *rel.Instance, opts hom.Options) bool {
	return UCQ{q}.EvalBool(inst, opts)
}

// UCQ is a union of conjunctive queries with the same head arity.
type UCQ []CQ

// Validate checks every disjunct and the head arity agreement.
func (u UCQ) Validate(target *rel.Schema) error {
	if len(u) == 0 {
		return fmt.Errorf("certain: empty union of conjunctive queries")
	}
	for _, q := range u {
		if err := q.Validate(target); err != nil {
			return err
		}
		if len(q.Head) != len(u[0].Head) {
			return fmt.Errorf("certain: query %s has head arity %d, expected %d", q.Name, len(q.Head), len(u[0].Head))
		}
	}
	return nil
}

// Eval returns the union of the disjuncts' answers.
func (u UCQ) Eval(inst *rel.Instance, opts hom.Options) []rel.Tuple {
	return u.compile().eval(inst, opts)
}

// EvalBool reports whether any disjunct holds.
func (u UCQ) EvalBool(inst *rel.Instance, opts hom.Options) bool {
	return u.compile().holds(inst, opts)
}

// compiledUCQ is a union of conjunctive queries compiled once to
// variable slots, for evaluation over many instances in turn.
type compiledUCQ []compiledCQ

// compiledCQ is one disjunct: its body, the slot of each head variable,
// and the slot vector its searches reuse.
type compiledCQ struct {
	body *hom.Conj
	head []int
	vals []rel.Value
}

func (u UCQ) compile() compiledUCQ {
	out := make(compiledUCQ, len(u))
	for k, q := range u {
		var vars hom.Vars
		out[k].body = vars.Compile(q.Body)
		for _, h := range q.Head {
			out[k].head = append(out[k].head, vars.Slot(h))
		}
		out[k].vals = make([]rel.Value, vars.Len())
	}
	return out
}

// eval returns the distinct head tuples of the disjuncts on inst, in
// answer order.
func (u compiledUCQ) eval(inst *rel.Instance, opts hom.Options) []rel.Tuple {
	seen := make(map[rel.TupleKey]bool)
	var out []rel.Tuple
	for _, q := range u {
		q.body.ForEach(inst, q.vals, opts, func(vals []rel.Value) bool {
			t := make(rel.Tuple, len(q.head))
			for i, s := range q.head {
				t[i] = vals[s]
			}
			if k := rel.KeyOf(t); !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
			return true
		})
	}
	SortAnswers(out)
	return out
}

// holds reports whether some disjunct holds on inst.
func (u compiledUCQ) holds(inst *rel.Instance, opts hom.Options) bool {
	for _, q := range u {
		if q.body.Exists(inst, q.vals, opts) {
			return true
		}
	}
	return false
}

// Options configures certain-answer computation.
type Options struct {
	// Solve configures the underlying solution enumeration.
	Solve core.SolveOptions
	// Canonical, when non-nil, is a precomputed chased canonical target
	// for (s, i, j) (see core.ChaseCanonicalTarget); the enumeration
	// then skips the chase phases. It must have been computed for the
	// same setting and instances.
	Canonical *core.CanonicalTarget
}

// forEach dispatches the image-solution enumeration to the cached or
// from-scratch path.
func (o Options) forEach(s *core.Setting, i, j *rel.Instance, fn func(*rel.Instance) bool) (*core.SolveStats, error) {
	if o.Canonical != nil {
		return core.ForEachImageSolutionFrom(s, i, j, o.Canonical, o.Solve, fn)
	}
	return core.ForEachImageSolution(s, i, j, o.Solve, fn)
}

// evalOpts configures query evaluation over one image solution. It
// carries no Ctx: a canceled search may report a spurious miss, which
// here would become a verdict. The enumeration polls Ctx between
// solutions instead, and a query over one solution is a single serial
// search.
func (o Options) evalOpts() hom.Options {
	c := o.Solve.Config
	c.Ctx = nil
	return c
}

// Result reports a certain-answers computation.
type Result struct {
	// SolutionExists is false when (I, J) has no solution; then every
	// Boolean query is vacuously certain and every tuple is vacuously a
	// certain answer (the paper quantifies over an empty set of
	// solutions).
	SolutionExists bool
	// Certain is the Boolean verdict (Boolean queries only).
	Certain bool
	// Answers are the certain answer tuples (open queries only), sorted.
	Answers []rel.Tuple
	// SolutionsExamined counts the image solutions enumerated.
	SolutionsExamined int
}

// Boolean computes certain(q, (I, J)) for a Boolean union of
// conjunctive queries.
func Boolean(s *core.Setting, i, j *rel.Instance, q UCQ, opts Options) (Result, error) {
	res := Result{Certain: true}
	cq := q.compile()
	_, err := opts.forEach(s, i, j, func(sol *rel.Instance) bool {
		res.SolutionExists = true
		res.SolutionsExamined++
		if !cq.holds(sol, opts.evalOpts()) {
			res.Certain = false
			return false // one counterexample solution settles it
		}
		return true
	})
	if err != nil {
		return res, err
	}
	return res, nil
}

// Answers computes the certain answers of an open union of conjunctive
// queries: the constant tuples in q(J') for every solution J'.
func Answers(s *core.Setting, i, j *rel.Instance, q UCQ, opts Options) (Result, error) {
	res := Result{}
	var inter map[rel.TupleKey]rel.Tuple
	cq := q.compile()
	_, err := opts.forEach(s, i, j, func(sol *rel.Instance) bool {
		res.SolutionExists = true
		res.SolutionsExamined++
		cur := make(map[rel.TupleKey]rel.Tuple)
		for _, t := range cq.eval(sol, opts.evalOpts()) {
			if tupleGround(t) {
				cur[rel.KeyOf(t)] = t
			}
		}
		if inter == nil {
			inter = cur
		} else {
			for k := range inter {
				if _, ok := cur[k]; !ok {
					delete(inter, k)
				}
			}
		}
		return len(inter) > 0 // empty intersection can never grow back
	})
	if err != nil {
		return res, err
	}
	for _, t := range inter {
		res.Answers = append(res.Answers, t)
	}
	SortAnswers(res.Answers)
	return res, nil
}

func tupleGround(t rel.Tuple) bool {
	for _, v := range t {
		if v.IsNull() {
			return false
		}
	}
	return true
}

// SortAnswers orders answer tuples by their printed text, the one
// answer order of every evaluator (enumeration, compiled plans,
// repairs), so their results are byte-identical. Each tuple is printed
// once, not once per comparison.
func SortAnswers(ts []rel.Tuple) {
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = t.String()
	}
	sort.Sort(&answerSorter{ts: ts, keys: keys})
}

type answerSorter struct {
	ts   []rel.Tuple
	keys []string
}

func (s *answerSorter) Len() int           { return len(s.ts) }
func (s *answerSorter) Less(a, b int) bool { return s.keys[a] < s.keys[b] }
func (s *answerSorter) Swap(a, b int) {
	s.ts[a], s.ts[b] = s.ts[b], s.ts[a]
	s.keys[a], s.keys[b] = s.keys[b], s.keys[a]
}
