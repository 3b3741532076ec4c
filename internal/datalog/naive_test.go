package datalog

import (
	"fmt"

	"repro/internal/dep"
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
			// The body's variables take the first slots; the head reads
			// them by name through the same numbering.
			var vars hom.Vars
			body := vars.Compile(r.Body)
			head := vars.Atoms([]dep.Atom{r.Head})[0]
			var tuples []rel.Tuple
			body.ForEach(full, make([]rel.Value, vars.Len()), opts.Hom, func(vals []rel.Value) bool {
				tuples = append(tuples, head.AppendTuple(nil, vals))
				return true
			})
			for _, t := range tuples {
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
