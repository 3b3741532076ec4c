package chase

import (
	"fmt"
	"sort"

	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// Violation describes one unsatisfied trigger of a dependency in an
// instance.
type Violation struct {
	// Dep is the label of the violated dependency.
	Dep string
	// Trigger is the body homomorphism with no valid head extension (or,
	// for an egd, a body homomorphism equating distinct values).
	Trigger hom.Binding
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Dep, v.Detail)
}

// Check reports whether the instance satisfies all dependencies.
// Dependencies may be tgds, egds, or disjunctive tgds. For dependencies
// whose body and head range over different schemas (source-to-target or
// target-to-source tgds), pass the union instance holding both sides.
func Check(inst *rel.Instance, deps []dep.Dependency, opts hom.Options) bool {
	return len(FirstViolation(inst, deps, opts)) == 0
}

// FirstViolation returns at most one violation, or an empty slice if the
// instance satisfies every dependency.
func FirstViolation(inst *rel.Instance, deps []dep.Dependency, opts hom.Options) []Violation {
	return violations(inst, deps, opts, true)
}

// Violations returns every violated trigger of every dependency.
func Violations(inst *rel.Instance, deps []dep.Dependency, opts hom.Options) []Violation {
	return violations(inst, deps, opts, false)
}

func violations(inst *rel.Instance, deps []dep.Dependency, opts hom.Options, firstOnly bool) []Violation {
	var out []Violation
	for _, d := range deps {
		switch d := d.(type) {
		case dep.TGD:
			uvars := d.UniversalVars()
			hom.ForEach(d.Body, inst, nil, opts, func(b hom.Binding) bool {
				bu := restrict(b, uvars)
				if !hom.Exists(d.Head, inst, bu, opts) {
					out = append(out, Violation{
						Dep:     d.Label,
						Trigger: bu,
						Detail:  fmt.Sprintf("trigger %v has no head extension for %s", bindingString(bu), d),
					})
					return !firstOnly
				}
				return true
			})
		case dep.EGD:
			hom.ForEach(d.Body, inst, nil, opts, func(b hom.Binding) bool {
				if b[d.Left] != b[d.Right] {
					bu := restrict(b, []string{d.Left, d.Right})
					out = append(out, Violation{
						Dep:     d.Label,
						Trigger: bu,
						Detail:  fmt.Sprintf("egd %s equates %v and %v", d.Label, b[d.Left], b[d.Right]),
					})
					return !firstOnly
				}
				return true
			})
		case dep.DisjunctiveTGD:
			uvars := varNamesOf(d.Body)
			hom.ForEach(d.Body, inst, nil, opts, func(b hom.Binding) bool {
				bu := restrict(b, uvars)
				for _, disj := range d.Disjuncts {
					if hom.Exists(disj, inst, bu, opts) {
						return true
					}
				}
				out = append(out, Violation{
					Dep:     d.Label,
					Trigger: bu,
					Detail:  fmt.Sprintf("trigger %v satisfies no disjunct of %s", bindingString(bu), d.Label),
				})
				return !firstOnly
			})
		}
		if firstOnly && len(out) > 0 {
			return out
		}
	}
	return out
}

func varNamesOf(atoms []dep.Atom) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range atoms {
		for _, v := range a.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

func bindingString(b hom.Binding) string {
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	// Deterministic rendering for errors and tests.
	sort.Strings(names)
	s := "{"
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n + "=" + b[n].String()
	}
	return s + "}"
}

func restrict(b hom.Binding, vars []string) hom.Binding {
	out := make(hom.Binding, len(vars))
	for _, v := range vars {
		out[v] = b[v]
	}
	return out
}
