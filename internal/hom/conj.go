package hom

import (
	"slices"

	"repro/internal/dep"
	"repro/internal/rel"
)

// Arg is one argument of a slot atom: the variable in slot Slot, or
// the constant Val when Slot is negative.
type Arg struct {
	Slot int
	Val  rel.Value
}

// Atom is an atom over variable slots. A search over two instances
// (Conj.ForEachIn) matches Alt atoms in its second instance.
type Atom struct {
	Rel  string
	Args []Arg
	Alt  bool
}

// AppendTuple appends the atom's arguments under the slot vector vals
// to t: the ground tuple of a fully bound atom.
func (a Atom) AppendTuple(t rel.Tuple, vals []rel.Value) rel.Tuple {
	for _, g := range a.Args {
		if g.Slot < 0 {
			t = append(t, g.Val)
		} else {
			t = append(t, vals[g.Slot])
		}
	}
	return t
}

// Vars numbers variable names by slot in first-use order. Conjunctions
// compiled over one Vars share its slot vector layout, so a binding of
// one (a chase trigger of a body) is directly a pre-binding of the next
// (its head).
type Vars struct {
	names []string
}

// Slot returns the slot of the named variable, numbering it on first
// use. Lookup is a linear scan: dependency bodies and queries name a
// handful of variables.
func (v *Vars) Slot(name string) int {
	if i := slices.Index(v.names, name); i >= 0 {
		return i
	}
	v.names = append(v.names, name)
	return len(v.names) - 1
}

// Len returns the number of slots numbered so far.
func (v *Vars) Len() int { return len(v.names) }

// Atoms returns the atoms over v's slots, numbering their new
// variables.
func (v *Vars) Atoms(atoms []dep.Atom) []Atom {
	n := 0
	for _, a := range atoms {
		n += len(a.Args)
	}
	args := make([]Arg, 0, n)
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		start := len(args)
		for _, t := range a.Args {
			if t.IsConst {
				args = append(args, Arg{Slot: -1, Val: rel.Const(t.Name)})
			} else {
				args = append(args, Arg{Slot: v.Slot(t.Name)})
			}
		}
		out[i] = Atom{Rel: a.Rel, Args: args[start:len(args):len(args)]}
	}
	return out
}

// Compile compiles the atoms over v's slots. The slots numbered before
// the call are pre-bound: every search of the conjunction reads them
// from the caller's slot vector.
func (v *Vars) Compile(atoms []dep.Atom) *Conj {
	pre := v.Len()
	return NewConj(v.Atoms(atoms), pre)
}

// argOp is what a compiled argument does with its tuple position:
// compare with a constant, compare with a slot bound before the atom,
// compare with a slot bound earlier in the same atom (no index use),
// or bind its slot for the first time.
type argOp uint8

const (
	opConst argOp = iota
	opCheck
	opSame
	opBind
)

type carg struct {
	op   argOp
	slot int
	val  rel.Value
}

type catom struct {
	rel  string
	in   int // 0 = the search's instance, 1 = its Alt instance
	args []carg
}

// Conj is a conjunction compiled once into atoms over variable slots,
// in a fixed join order. Every argument's role — a constant, a check of
// a bound slot, or the first binding of a slot — is decided at compile
// time, so the search loop does no map operation and no constant
// interning. A Conj is immutable and safe for concurrent searches,
// each over its own slot vector.
type Conj struct {
	atoms []catom
	slots int
	// ground: no argument binds a slot, so Exists is a containment
	// check of each grounded atom.
	ground bool
}

// NewConj compiles slot atoms whose slots below pre are pre-bound. The
// join order is greedy: repeatedly take the atom with the highest score
// bound×16 − unbound over its arguments (constants count as bound; ties
// go to the earliest atom), then count its slots as bound. A good order
// keeps the backtracking search close to linear on the acyclic patterns
// that dominate chase bodies.
func NewConj(atoms []Atom, pre int) *Conj {
	c := &Conj{slots: pre, ground: true}
	n := 0
	for _, a := range atoms {
		n += len(a.Args)
		for _, g := range a.Args {
			c.slots = max(c.slots, g.Slot+1)
		}
	}
	bound := make([]bool, c.slots)
	for s := 0; s < pre; s++ {
		bound[s] = true
	}
	args := make([]carg, 0, n)
	c.atoms = make([]catom, 0, len(atoms))
	remaining := make([]int, len(atoms))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		best, bestScore := 0, -1<<30
		for k, ai := range remaining {
			nb, nu := 0, 0
			for _, g := range atoms[ai].Args {
				if g.Slot < 0 || bound[g.Slot] {
					nb++
				} else {
					nu++
				}
			}
			if score := nb*16 - nu; score > bestScore {
				best, bestScore = k, score
			}
		}
		a := atoms[remaining[best]]
		remaining = slices.Delete(remaining, best, best+1)
		start := len(args)
		for _, g := range a.Args {
			ca := carg{slot: g.Slot, val: g.Val}
			switch {
			case g.Slot < 0:
				ca.op = opConst
			case !bound[g.Slot]:
				ca.op = opBind
				bound[g.Slot] = true
				c.ground = false
			case slices.ContainsFunc(args[start:], func(p carg) bool { return p.op == opBind && p.slot == g.Slot }):
				ca.op = opSame
			default:
				ca.op = opCheck
			}
			args = append(args, ca)
		}
		in := 0
		if a.Alt {
			in = 1
		}
		c.atoms = append(c.atoms, catom{rel: a.Rel, in: in, args: args[start:len(args):len(args)]})
	}
	return c
}

// Slots returns the length a slot vector for c must have.
func (c *Conj) Slots() int { return c.slots }

// ForEach enumerates the homomorphisms from c into inst that extend the
// pre-bound slots of vals, in join order with ascending candidates per
// atom. It calls fn with vals itself, every slot bound: fn must not
// retain it (copy what it keeps) and must not write the pre-bound
// slots. fn returns false to stop. ForEach reports whether the
// enumeration ran to completion; a canceled opts.Ctx also stops it, so
// callers that set Ctx re-check Ctx.Err() after a stop.
func (c *Conj) ForEach(inst *rel.Instance, vals []rel.Value, opts Options, fn func([]rel.Value) bool) bool {
	return c.ForEachIn(inst, inst, vals, opts, fn)
}

// ForEachIn is ForEach over two instances: Alt atoms match in alt, the
// others in inst.
func (c *Conj) ForEachIn(inst, alt *rel.Instance, vals []rel.Value, opts Options, fn func([]rel.Value) bool) bool {
	s := c.newSearcher(inst, alt, vals, opts, fn)
	if s == nil {
		return true
	}
	defer s.release()
	return s.match(0)
}

// Exists reports whether some homomorphism from c into inst extends
// the pre-bound slots of vals. It writes only the slots c binds; when
// it reports true they hold the first homomorphism in ForEach's order.
// A conjunction that binds no slot is checked by containment, with no
// backtracking search.
func (c *Conj) Exists(inst *rel.Instance, vals []rel.Value, opts Options) bool {
	if c.ground {
		return c.contains(inst, vals)
	}
	s := c.newSearcher(inst, inst, vals, opts, nil)
	if s == nil {
		return false
	}
	defer s.release()
	s.match(0)
	return s.found
}

// contains reports whether every atom of a ground conjunction, grounded
// under vals, is a fact of inst.
func (c *Conj) contains(inst *rel.Instance, vals []rel.Value) bool {
	s := searcherPool.Get().(*searcher)
	defer searcherPool.Put(s)
	for i := range c.atoms {
		a := &c.atoms[i]
		t := s.tup[:0]
		for _, g := range a.args {
			if g.op == opConst {
				t = append(t, g.val)
			} else {
				t = append(t, vals[g.slot])
			}
		}
		s.tup = t
		r := inst.Relation(a.rel)
		if r == nil || !r.Contains(t) {
			return false
		}
	}
	return true
}

// EnumerateDeltaSpec streams the homomorphisms from c into inst
// extending the pre-bound slots of vals that use at least one new tuple
// (past the spec.Old watermark) or one changed (merge-rewritten) tuple
// listed in spec.Changed, each exactly once and in ForEach's order. fn
// gets vals as ForEach's fn does and returns false to stop;
// EnumerateDeltaSpec reports whether the enumeration ran to completion.
// Bindings whose atoms all match unchanged old tuples are skipped
// without being enumerated — the caller guarantees it has already
// processed them (this is the chase's invariant: a trigger over facts
// it has seen was satisfied by the end of that collection's firing
// pass, and merges report the tuples they rewrite through Changed).
//
// A zero spec (nil Old) requests the full enumeration, so does an
// all-zero Old (the first chase round seeds the delta with the whole
// instance). This is the trigger search of the chase, for tgds and
// egds alike.
//
// The enumeration is one backtracking search in ForEach's join order
// (see searcher.pending): every candidate list is ascending, so the
// stream is the full enumeration restricted to the delta-touching
// bindings.
func (c *Conj) EnumerateDeltaSpec(inst *rel.Instance, vals []rel.Value, spec DeltaSpec, opts Options, fn func([]rel.Value) bool) bool {
	s := c.newSearcher(inst, inst, vals, opts, fn)
	if s == nil {
		return true
	}
	defer s.release()
	if spec.Old != nil {
		hasNew := false
		for i, a := range c.atoms {
			r := s.rels[i]
			d := depthDelta{old: spec.Old.oldCount(r), changed: spec.Changed[a.rel]}
			if d.old < r.Len() || len(d.changed) > 0 {
				s.last, hasNew = i, true
			}
			s.delta = append(s.delta, d)
		}
		if !hasNew {
			// Nothing new: in particular an empty body, whose single
			// (empty) trigger was handled when the watermark was taken.
			return true
		}
		s.pending = true
	}
	return s.match(0)
}
