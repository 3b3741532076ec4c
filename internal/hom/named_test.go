package hom

import (
	"sort"

	"repro/internal/dep"
	"repro/internal/rel"
)

// binding is a slot vector by variable name, the form the tests write
// expected results and pre-bindings in.
type binding map[string]rel.Value

// compileNamed compiles atoms with init's variables pre-bound: they
// take the first slots, in name order, and hold their values in the
// returned slot vector.
func compileNamed(atoms []dep.Atom, init binding) (*Vars, *Conj, []rel.Value) {
	vars := &Vars{names: make([]string, 0, len(init))}
	for name := range init {
		vars.names = append(vars.names, name)
	}
	sort.Strings(vars.names)
	c := vars.Compile(atoms)
	vals := make([]rel.Value, vars.Len())
	for i, name := range vars.names[:len(init)] {
		vals[i] = init[name]
	}
	return vars, c, vals
}

// named returns a fresh copy of the slot vector vals over vars, by
// name.
func named(vars *Vars, vals []rel.Value) binding {
	b := make(binding, len(vars.names))
	for i, name := range vars.names {
		b[name] = vals[i]
	}
	return b
}

// forEach runs Conj.ForEach on atoms compiled with init pre-bound (init
// may be nil), handing fn each homomorphism by name.
func forEach(atoms []dep.Atom, inst *rel.Instance, init binding, opts Options, fn func(binding) bool) bool {
	vars, c, vals := compileNamed(atoms, init)
	return c.ForEach(inst, vals, opts, func(vals []rel.Value) bool {
		return fn(named(vars, vals))
	})
}

// exists runs Conj.Exists on atoms compiled with init pre-bound.
func exists(atoms []dep.Atom, inst *rel.Instance, init binding, opts Options) bool {
	_, c, vals := compileNamed(atoms, init)
	return c.Exists(inst, vals, opts)
}

// findOne returns the homomorphism Conj.Exists leaves in the slots of
// atoms compiled with init pre-bound, if there is one.
func findOne(atoms []dep.Atom, inst *rel.Instance, init binding, opts Options) (binding, bool) {
	vars, c, vals := compileNamed(atoms, init)
	if !c.Exists(inst, vals, opts) {
		return nil, false
	}
	return named(vars, vals), true
}
