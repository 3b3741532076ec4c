package datalog

import (
	"fmt"

	"repro/internal/hom"
	"repro/internal/rel"
)

// Naive evaluates the program by naive fixpoint iteration (every rule
// against the full instance each round). It is the reference the
// differential tests check Eval against.
func (p *Program) Naive(edb *rel.Instance, opts Options) (*rel.Instance, error) {
	full := edb.Clone()
	budget := opts.maxDerivations()
	derived := 0
	for {
		added := false
		for _, r := range p.Rules {
			var bindings []hom.Binding
			hom.ForEach(r.Body, full, nil, opts.Hom, func(b hom.Binding) bool {
				bindings = append(bindings, b)
				return true
			})
			for _, b := range bindings {
				t := make(rel.Tuple, len(r.Head.Args))
				for i, term := range r.Head.Args {
					if term.IsConst {
						t[i] = rel.Const(term.Name)
					} else {
						t[i] = b[term.Name]
					}
				}
				if full.AddTuple(r.Head.Rel, t) {
					added = true
					derived++
					if derived > budget {
						return nil, fmt.Errorf("datalog: derivation budget of %d exceeded (rule %s)", budget, r.Label)
					}
				}
			}
		}
		if !added {
			return full, nil
		}
	}
}
