// Package datalog implements positive Datalog, evaluated by the chase:
// a rule is a full tgd with one head atom, and chase.Run's semi-naive
// trigger search is the evaluation loop. It completes the peer data
// management model of Section 2 of the peer data exchange paper:
// Halevy et al.'s PDMS allows *definitional mappings* — Datalog
// programs whose rules have single peer relations in heads and bodies
// — alongside the inclusion and equality mappings. The paper's
// PDE-to-PDMS translation uses no definitional mappings, but package
// pdms supports them through this engine so the full mapping language
// of [14] is representable.
package datalog

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// Rule is a positive Datalog rule head :- body. Safety requires every
// head variable to occur in the body.
type Rule struct {
	// Label identifies the rule in errors.
	Label string
	// Head is the derived atom.
	Head dep.Atom
	// Body is the conjunction of subgoals.
	Body []dep.Atom
}

// String renders the rule.
func (r Rule) String() string {
	s := r.Head.String() + " :- "
	for i, a := range r.Body {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s
}

// Validate checks safety and schema conformance.
func (r Rule) Validate(schema *rel.Schema) error {
	if len(r.Body) == 0 {
		return fmt.Errorf("datalog: rule %s has an empty body", r.Label)
	}
	atoms := append([]dep.Atom{r.Head}, r.Body...)
	for _, a := range atoms {
		ar, ok := schema.Arity(a.Rel)
		if !ok {
			return fmt.Errorf("datalog: rule %s: relation %s not in schema", r.Label, a.Rel)
		}
		if ar != len(a.Args) {
			return fmt.Errorf("datalog: rule %s: atom %s has %d arguments, relation has arity %d", r.Label, a, len(a.Args), ar)
		}
	}
	return r.safe()
}

// safe checks that every head variable occurs in the body.
func (r Rule) safe() error {
	bodyVars := make(map[string]bool)
	for _, a := range r.Body {
		for _, v := range a.Vars() {
			bodyVars[v] = true
		}
	}
	for _, v := range r.Head.Vars() {
		if !bodyVars[v] {
			return fmt.Errorf("datalog: rule %s is unsafe: head variable %s not in body", r.Label, v)
		}
	}
	return nil
}

// Program is a set of positive Datalog rules.
type Program struct {
	Rules []Rule
}

// Validate checks every rule.
func (p *Program) Validate(schema *rel.Schema) error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("datalog: empty program")
	}
	for _, r := range p.Rules {
		if err := r.Validate(schema); err != nil {
			return err
		}
	}
	return nil
}

// IDB returns the set of derived (intensional) relation names: those
// appearing in some rule head.
func (p *Program) IDB() map[string]bool {
	out := make(map[string]bool)
	for _, r := range p.Rules {
		out[r.Head.Rel] = true
	}
	return out
}

// Options configures evaluation.
type Options struct {
	// MaxDerivations bounds the number of derived facts; 0 means
	// 1,000,000. Positive Datalog always terminates, but the bound
	// keeps accidental cross products honest.
	MaxDerivations int
	// Hom configures the subgoal matching.
	Hom hom.Options
}

func (o Options) maxDerivations() int {
	if o.MaxDerivations > 0 {
		return o.MaxDerivations
	}
	return 1_000_000
}

// Eval computes the minimal model of the program over the given
// extensional database: the least fixpoint containing edb. The facts of
// edb are not changed, but Eval clones it, which counts as a write to an
// unfrozen edb (see rel.Instance); the result holds edb plus every
// derived fact.
//
// Evaluation is the chase: each rule is a full tgd with a single head
// atom, which chase.Run evaluates semi-naively — each round matches a
// rule only on bindings that touch a fact it has not seen, each binding
// once. Every chase step derives one new fact, so the step budget is
// the derivation budget; running out of it returns an error wrapping
// chase.ErrBudgetExhausted. An unsafe rule is an error: its head
// variables outside the body would be chased as labeled nulls.
func (p *Program) Eval(edb *rel.Instance, opts Options) (*rel.Instance, error) {
	deps := make([]dep.Dependency, len(p.Rules))
	for i, r := range p.Rules {
		if err := r.safe(); err != nil {
			return nil, err
		}
		deps[i] = dep.TGD{Label: r.Label, Body: r.Body, Head: []dep.Atom{r.Head}}
	}
	res, err := chase.Run(edb, deps, chase.Options{Config: opts.Hom, MaxSteps: opts.maxDerivations()})
	if err != nil {
		return nil, fmt.Errorf("datalog: %w", err)
	}
	return res.Instance, nil
}
