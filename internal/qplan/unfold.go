// Unfolding: rewriting a conjunction of target atoms into a union of
// conjunctions over the source instance I and the stored target
// instance J.
//
// Every target atom either holds in J directly or is the instance of
// one head conjunct of one st-tgd trigger. The oblivious st-chase fires
// one trigger per (tgd, universal binding), so the labeled null filling
// an existential position is a Skolem term f_{d,e}(universal vars): two
// occurrences denote the same null exactly when they come from the same
// tgd, the same existential variable, and equal universal bindings.
// The unifier below encodes that discipline — each atom gets its own
// renamed trigger copy, and joining two existential positions merges
// the two copies (forcing equal universal bindings) when they agree on
// (tgd, variable) and prunes the disjunct otherwise. A null can never
// equal a constant or a value drawn from the null-free I or J, so such
// unifications prune too.
package qplan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// literal returns the term holding the constant with text c.
func literal(c string) hom.Arg { return hom.Arg{Slot: -1, Val: rel.Const(c)} }

// disjunct is one conjunct of the compiled union, in hom's slot form:
// atoms in emission order (conj is them compiled for the searcher) and
// the head row template. The first nparams slots stand for the query's
// param constants, pre-bound to the binding plan's params at every
// scan, so two params are the same constant exactly when their slots
// are equal; the variables take the slots after them, and a literal
// constant is an argument with no slot. Source atoms are Alt: a scan
// matches them in the source instance, the others in the stored target
// instance.
type disjunct struct {
	atoms   []hom.Atom
	head    hom.Atom
	nparams int
	conj    *hom.Conj
	// key is the canonical rendering used for deduplication.
	key string
}

// unfold rewrites (head, body) — a query disjunct or a Σts body with
// its head variables — into compiled disjuncts. A constant of body
// whose text params maps compiles to that param slot, any other to its
// value (see SettingPlan.headConsts). dropNullHeads drops
// disjuncts binding a head variable to an existential position (open
// queries: only ground rows can be certain); when false such a binding
// is an internal error, since the fragment gate proved Σts heads
// null-free. The second result counts the dropped disjuncts.
func (sp *SettingPlan) unfold(head []dep.Term, body []dep.Atom, dropNullHeads bool, params map[string]int) ([]disjunct, int, error) {
	// One choice list per atom: the stored target instance, then every
	// st head conjunct over the same relation.
	choices := make([][]origin, len(body))
	total := 1
	for k, a := range body {
		opts := make([]origin, 0, 1+len(sp.origins[a.Rel]))
		opts = append(opts, origin{tgd: -1}) // match against J
		opts = append(opts, sp.origins[a.Rel]...)
		choices[k] = opts
		total *= len(opts)
		if total > maxDisjuncts {
			return nil, 0, &FallbackError{
				Reason: FallbackPlanSize,
				Detail: fmt.Sprintf("more than %d origin assignments", maxDisjuncts),
			}
		}
	}
	var out []disjunct
	dropped := 0
	asg := make([]int, len(body))
	for {
		d, drop, err := sp.buildDisjunct(head, body, choices, asg, dropNullHeads, params)
		if err != nil {
			return nil, 0, err
		}
		if drop {
			dropped++
		} else if d != nil {
			out = append(out, *d)
		}
		// Next assignment, in mixed-radix order.
		k := len(asg) - 1
		for ; k >= 0; k-- {
			asg[k]++
			if asg[k] < len(choices[k]) {
				break
			}
			asg[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return out, dropped, nil
}

// unifier is a union-find over query variables and trigger-copy
// variables, with per-class attributes: a constant binding, or an
// existential marker (copy, variable) identifying a Skolem null.
type unifier struct {
	sp     *SettingPlan
	params map[string]int // query constant text → param slot; an unmapped constant stays literal
	parent []int
	size   []int
	attrs  []attr

	// copies created for this disjunct: tgd index and the nodes of the
	// tgd's universal variables.
	copyTGD    []int
	copyParent []int
	copyVars   []map[string]int

	queue  [][2]int
	failed bool
}

type attr struct {
	hasConst bool
	constVal hom.Arg
	hasEx    bool
	exCopy   int
	exVar    string
}

func newUnifier(sp *SettingPlan, params map[string]int) *unifier {
	return &unifier{sp: sp, params: params}
}

// queryConst compiles a constant of the query: its param slot, or its
// value when it stays literal.
func (u *unifier) queryConst(c string) hom.Arg {
	if k, ok := u.params[c]; ok {
		return hom.Arg{Slot: k}
	}
	return literal(c)
}

func (u *unifier) newNode() int {
	u.parent = append(u.parent, len(u.parent))
	u.size = append(u.size, 1)
	u.attrs = append(u.attrs, attr{})
	return len(u.parent) - 1
}

func (u *unifier) find(n int) int {
	for u.parent[n] != n {
		u.parent[n] = u.parent[u.parent[n]]
		n = u.parent[n]
	}
	return n
}

// newCopy allocates a fresh trigger copy of st-tgd di, with its own
// nodes for the tgd's universal variables.
func (u *unifier) newCopy(di int) int {
	vars := make(map[string]int)
	for _, v := range u.sp.s.ST[di].UniversalVars() {
		vars[v] = u.newNode()
	}
	u.copyTGD = append(u.copyTGD, di)
	u.copyParent = append(u.copyParent, len(u.copyParent))
	u.copyVars = append(u.copyVars, vars)
	return len(u.copyTGD) - 1
}

// findCopy resolves a copy to its representative; merged copies keep
// the earliest-created one as root, so emission order is stable.
func (u *unifier) findCopy(c int) int {
	for u.copyParent[c] != c {
		u.copyParent[c] = u.copyParent[u.copyParent[c]]
		c = u.copyParent[c]
	}
	return c
}

// union enqueues a node unification and drains the worklist.
func (u *unifier) union(a, b int) {
	u.queue = append(u.queue, [2]int{a, b})
	u.drain()
}

func (u *unifier) drain() {
	for len(u.queue) > 0 && !u.failed {
		pair := u.queue[len(u.queue)-1]
		u.queue = u.queue[:len(u.queue)-1]
		ra, rb := u.find(pair[0]), u.find(pair[1])
		if ra == rb {
			continue
		}
		if u.size[ra] < u.size[rb] {
			ra, rb = rb, ra
		}
		merged, ok := u.mergeAttrs(u.attrs[ra], u.attrs[rb])
		if !ok {
			u.failed = true
			return
		}
		u.parent[rb] = ra
		u.size[ra] += u.size[rb]
		u.attrs[ra] = merged
	}
}

// mergeAttrs combines two class attributes, enqueuing copy merges when
// two Skolem markers coincide. It reports false on contradiction: two
// distinct constants, or a constant meeting a Skolem null.
func (u *unifier) mergeAttrs(a, b attr) (attr, bool) {
	if a.hasConst && b.hasConst && a.constVal != b.constVal {
		return attr{}, false
	}
	if (a.hasConst && b.hasEx) || (a.hasEx && b.hasConst) {
		return attr{}, false
	}
	out := a
	if b.hasConst {
		out.hasConst, out.constVal = true, b.constVal
	}
	if a.hasEx && b.hasEx {
		ca, cb := u.findCopy(a.exCopy), u.findCopy(b.exCopy)
		if u.copyTGD[ca] != u.copyTGD[cb] || a.exVar != b.exVar {
			// Nulls from different tgds or different existential
			// variables are always distinct.
			return attr{}, false
		}
		u.mergeCopies(ca, cb)
	} else if b.hasEx {
		out.hasEx, out.exCopy, out.exVar = true, b.exCopy, b.exVar
	}
	return out, true
}

// mergeCopies identifies two trigger copies of the same tgd: their
// universal bindings must agree, so the corresponding variable nodes
// are enqueued for unification.
func (u *unifier) mergeCopies(ca, cb int) {
	if ca == cb {
		return
	}
	if ca > cb {
		ca, cb = cb, ca
	}
	u.copyParent[cb] = ca
	for _, v := range u.sp.s.ST[u.copyTGD[ca]].UniversalVars() {
		u.queue = append(u.queue, [2]int{u.copyVars[ca][v], u.copyVars[cb][v]})
	}
}

func (u *unifier) bindConst(n int, c hom.Arg) {
	r := u.find(n)
	merged, ok := u.mergeAttrs(u.attrs[r], attr{hasConst: true, constVal: c})
	if !ok {
		u.failed = true
		return
	}
	u.attrs[r] = merged
	u.drain()
}

func (u *unifier) bindExistential(n, copyID int, evar string) {
	r := u.find(n)
	merged, ok := u.mergeAttrs(u.attrs[r], attr{hasEx: true, exCopy: copyID, exVar: evar})
	if !ok {
		u.failed = true
		return
	}
	u.attrs[r] = merged
	u.drain()
}

// buildDisjunct compiles one origin assignment. It returns (nil, true,
// nil) when the disjunct is dropped for binding a head variable to a
// null, and (nil, false, nil) when unification pruned it.
func (sp *SettingPlan) buildDisjunct(head []dep.Term, body []dep.Atom, choices [][]origin, asg []int, dropNullHeads bool, params map[string]int) (*disjunct, bool, error) {
	u := newUnifier(sp, params)
	qvar := make(map[string]int)
	node := func(name string) int {
		n, ok := qvar[name]
		if !ok {
			n = u.newNode()
			qvar[name] = n
		}
		return n
	}
	// Per body atom: the trigger copy serving it (-1 when matched
	// against J).
	atomCopy := make([]int, len(body))
	for k, a := range body {
		o := choices[k][asg[k]]
		if o.tgd < 0 {
			atomCopy[k] = -1
			// Still materialize nodes for the atom's variables, so
			// head variables resolve even for J-only disjuncts.
			for _, t := range a.Args {
				if !t.IsConst {
					node(t.Name)
				}
			}
			continue
		}
		c := u.newCopy(o.tgd)
		atomCopy[k] = c
		headAtom := sp.s.ST[o.tgd].Head[o.atom]
		for p, ht := range headAtom.Args {
			qt := a.Args[p]
			switch {
			case ht.IsConst && qt.IsConst:
				if literal(ht.Name) != u.queryConst(qt.Name) {
					u.failed = true
				}
			case ht.IsConst:
				u.bindConst(node(qt.Name), literal(ht.Name))
			case sp.universal[o.tgd][ht.Name]:
				hn := u.copyVars[c][ht.Name]
				if qt.IsConst {
					u.bindConst(hn, u.queryConst(qt.Name))
				} else {
					u.union(node(qt.Name), hn)
				}
			default: // existential position: a Skolem null
				if qt.IsConst {
					u.failed = true // a null never equals a constant
				} else {
					u.bindExistential(node(qt.Name), c, ht.Name)
				}
			}
			if u.failed {
				return nil, false, nil
			}
		}
	}

	// Emission: trigger-copy bodies (once per merged copy) and J atoms,
	// in body-atom order. Variable slots are assigned per class root in
	// first-appearance order.
	d := &disjunct{nparams: len(params)}
	slots := make(map[int]int)
	pruned := false
	termOf := func(t dep.Term, copyID int) hom.Arg {
		switch {
		case t.IsConst && copyID >= 0: // a Σst body constant
			return literal(t.Name)
		case t.IsConst:
			return u.queryConst(t.Name)
		}
		var n int
		if copyID >= 0 {
			n = u.copyVars[copyID][t.Name]
		} else {
			n = node(t.Name)
		}
		r := u.find(n)
		at := u.attrs[r]
		if at.hasConst {
			return at.constVal
		}
		if at.hasEx {
			// A Skolem null flowed into an instance-matched position;
			// the null-free instances can never supply it.
			pruned = true
			return hom.Arg{}
		}
		s, ok := slots[r]
		if !ok {
			s = d.nparams + len(slots)
			slots[r] = s
		}
		return hom.Arg{Slot: s}
	}
	seenAtom := make(map[string]bool)
	emit := func(source bool, relName string, args []dep.Term, copyID int) {
		a := hom.Atom{Rel: relName, Args: make([]hom.Arg, len(args)), Alt: source}
		for p, t := range args {
			a.Args[p] = termOf(t, copyID)
			if pruned {
				return
			}
		}
		k := d.atomKey(a)
		if seenAtom[k] {
			return
		}
		seenAtom[k] = true
		d.atoms = append(d.atoms, a)
	}
	emittedCopy := make(map[int]bool)
	for k, a := range body {
		if atomCopy[k] < 0 {
			emit(false, a.Rel, a.Args, -1)
		} else {
			c := u.findCopy(atomCopy[k])
			if !emittedCopy[c] {
				emittedCopy[c] = true
				for _, ba := range sp.s.ST[u.copyTGD[c]].Body {
					emit(true, ba.Rel, ba.Args, c)
					if pruned {
						return nil, false, nil
					}
				}
			}
		}
		if pruned {
			return nil, false, nil
		}
	}

	// Head template.
	d.head.Args = make([]hom.Arg, len(head))
	for hi, t := range head {
		if t.IsConst {
			d.head.Args[hi] = literal(t.Name)
			continue
		}
		r := u.find(node(t.Name))
		at := u.attrs[r]
		switch {
		case at.hasConst:
			d.head.Args[hi] = at.constVal
		case at.hasEx:
			if !dropNullHeads {
				return nil, false, fmt.Errorf("qplan: internal: probe head variable %s bound to a null", t.Name)
			}
			return nil, true, nil
		default:
			s, ok := slots[r]
			if !ok {
				// The head variable's class never reached an emitted
				// atom; it cannot be produced (defensive — Validate
				// guarantees head variables occur in the body).
				return nil, false, nil
			}
			d.head.Args[hi] = hom.Arg{Slot: s}
		}
	}

	d.conj = hom.NewConj(d.atoms, d.nparams)
	d.key = d.render()
	return d, false, nil
}

// render produces the canonical text of the disjunct: head then atoms,
// with variables renumbered by first occurrence so structurally equal
// disjuncts from different origin assignments deduplicate, and param
// constants written as their slots $k.
func (d *disjunct) render() string {
	return d.renderWith(nil, nil)
}

// renderWith is render with head-variable names substituted for the
// head slots (used for probe display) and param constants resolved
// from params when it is non-nil (used for plan display).
func (d *disjunct) renderWith(headNames []string, params []rel.Value) string {
	canon := make(map[int]int)
	var b strings.Builder
	writeTerm := func(t hom.Arg) {
		switch {
		case t.Slot < 0:
			b.WriteString(t.Val.String())
			return
		case t.Slot < d.nparams && params == nil:
			b.WriteString("$")
			b.WriteString(strconv.Itoa(t.Slot))
			return
		case t.Slot < d.nparams:
			b.WriteString(params[t.Slot].String())
			return
		}
		c, ok := canon[t.Slot]
		if !ok {
			c = len(canon)
			canon[t.Slot] = c
		}
		b.WriteString("v")
		b.WriteString(strconv.Itoa(c))
	}
	if len(d.head.Args) > 0 {
		b.WriteString("(")
		for i, t := range d.head.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			if headNames != nil && t.Slot >= d.nparams {
				b.WriteString(headNames[i])
				b.WriteString("=")
			}
			writeTerm(t)
		}
		b.WriteString(")")
	}
	b.WriteString(" :- ")
	for i, a := range d.atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		if a.Alt {
			b.WriteString("src:")
		} else {
			b.WriteString("tgt:")
		}
		b.WriteString(a.Rel)
		b.WriteString("(")
		for p, t := range a.Args {
			if p > 0 {
				b.WriteString(", ")
			}
			writeTerm(t)
		}
		b.WriteString(")")
	}
	return b.String()
}

// atomKey is the exact (slot-numbered) form of one atom of d, used to
// drop duplicate atoms within a disjunct.
func (d *disjunct) atomKey(a hom.Atom) string {
	var b strings.Builder
	if a.Alt {
		b.WriteString("s:")
	} else {
		b.WriteString("t:")
	}
	b.WriteString(a.Rel)
	for _, t := range a.Args {
		b.WriteString("|")
		switch {
		case t.Slot < 0:
			b.WriteString(t.Val.String())
		case t.Slot < d.nparams:
			b.WriteString("$")
			b.WriteString(strconv.Itoa(t.Slot))
		default:
			b.WriteString("v")
			b.WriteString(strconv.Itoa(t.Slot))
		}
	}
	return b.String()
}
