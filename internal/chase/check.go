package chase

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// Violation describes one unsatisfied trigger of a dependency in an
// instance.
type Violation struct {
	// Dep is the label of the violated dependency.
	Dep string
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
// It stops at the first violated trigger.
func Check(inst *rel.Instance, deps []dep.Dependency, opts hom.Options) bool {
	return eachViolation(inst, deps, opts, func(dep.Dependency, *compiled, []rel.Value) bool { return false })
}

// Violations returns every violated trigger of every dependency, in
// dependency order and then in the body's search order.
func Violations(inst *rel.Instance, deps []dep.Dependency, opts hom.Options) []Violation {
	var out []Violation
	eachViolation(inst, deps, opts, func(d dep.Dependency, c *compiled, vals []rel.Value) bool {
		out = append(out, c.violation(d, vals))
		return true
	})
	return out
}

// eachViolation compiles each dependency once, as the chase does, and
// calls fn with every body homomorphism (a slot vector of the compiled
// layout) that is a violated trigger; fn returns false to stop. It
// reports whether no trigger was violated.
func eachViolation(inst *rel.Instance, deps []dep.Dependency, opts hom.Options, fn func(dep.Dependency, *compiled, []rel.Value) bool) bool {
	ok := true
	for _, d := range deps {
		c := compile(d)
		stopped := !c.body.ForEach(inst, make([]rel.Value, c.slots), opts, func(vals []rel.Value) bool {
			if c.holds(inst, vals, opts) {
				return true
			}
			ok = false
			return fn(d, &c, vals)
		})
		if stopped && !ok {
			break
		}
	}
	return ok
}

// holds reports whether the trigger vals satisfies c: a tgd's head, or
// some disjunct of a disjunctive tgd, extends it in inst, or an egd's
// two slots hold one value.
func (c *compiled) holds(inst *rel.Instance, vals []rel.Value, opts hom.Options) bool {
	switch {
	case c.head != nil:
		return c.head.Exists(inst, vals, opts)
	case c.disjuncts != nil:
		return slices.ContainsFunc(c.disjuncts, func(h *hom.Conj) bool { return h.Exists(inst, vals, opts) })
	default:
		return vals[c.left] == vals[c.right]
	}
}

// violation explains the violated trigger vals of d, compiled as c.
func (c *compiled) violation(d dep.Dependency, vals []rel.Value) Violation {
	v := Violation{Dep: d.DepLabel()}
	switch d := d.(type) {
	case dep.TGD:
		v.Detail = fmt.Sprintf("trigger %s has no head extension for %s", triggerString(d.Body, vals), d)
	case dep.EGD:
		v.Detail = fmt.Sprintf("egd %s equates %v and %v", d.Label, vals[c.left], vals[c.right])
	case dep.DisjunctiveTGD:
		v.Detail = fmt.Sprintf("trigger %s satisfies no disjunct of %s", triggerString(d.Body, vals), d.Label)
	}
	return v
}

// triggerString renders a trigger of body as {name=value, ...} in name
// order. The body's variables hold the first slots in first-occurrence
// order (see compile).
func triggerString(body []dep.Atom, vals []rel.Value) string {
	var names []string
	for _, a := range body {
		for _, v := range a.Vars() {
			if !slices.Contains(names, v) {
				names = append(names, v)
			}
		}
	}
	pairs := make([]string, 0, len(names))
	for _, name := range slices.Sorted(slices.Values(names)) {
		pairs = append(pairs, name+"="+vals[slices.Index(names, name)].String())
	}
	return "{" + strings.Join(pairs, ", ") + "}"
}
