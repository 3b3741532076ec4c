package hom

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dep"
	"repro/internal/rel"
)

// referenceForEach is the map-binding backtracking search the slot
// searcher replaced, kept as its independent reference: the same join
// order (referenceOrderAtoms scores bound×16 − unbound, ties to the
// first atom) and the same candidate lists, over a binding that each
// candidate extends and then restores. It hands fn a fresh copy of
// every complete binding and reports whether the enumeration ran to
// completion.
func referenceForEach(atoms []dep.Atom, inst *rel.Instance, init binding, fn func(binding) bool) bool {
	b := binding{}
	maps.Copy(b, init)
	return referenceMatch(referenceOrderAtoms(atoms, b), 0, inst, b, fn)
}

func referenceOrderAtoms(atoms []dep.Atom, init binding) []dep.Atom {
	bound := make(map[string]bool, len(init))
	for v := range init {
		bound[v] = true
	}
	remaining := append([]dep.Atom(nil), atoms...)
	var out []dep.Atom
	for len(remaining) > 0 {
		best, bestScore := 0, -1<<30
		for i, a := range remaining {
			nb, nu := 0, 0
			for _, t := range a.Args {
				if t.IsConst || bound[t.Name] {
					nb++
				} else {
					nu++
				}
			}
			if score := nb*16 - nu; score > bestScore {
				best, bestScore = i, score
			}
		}
		a := remaining[best]
		out = append(out, a)
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, t := range a.Args {
			if !t.IsConst {
				bound[t.Name] = true
			}
		}
	}
	return out
}

func referenceMatch(atoms []dep.Atom, i int, inst *rel.Instance, b binding, fn func(binding) bool) bool {
	if i == len(atoms) {
		return fn(maps.Clone(b))
	}
	r := inst.Relation(atoms[i].Rel)
	if r == nil {
		return true
	}
	for _, idx := range referenceCandidates(r, atoms[i], b) {
		if !referenceTryTuple(atoms, i, inst, r.TupleAt(idx), b, fn) {
			return false
		}
	}
	return true
}

// referenceTryTuple unifies atoms[i] with tuple t under b, recurses on
// success, and restores b.
func referenceTryTuple(atoms []dep.Atom, i int, inst *rel.Instance, t rel.Tuple, b binding, fn func(binding) bool) bool {
	var newly []string
	defer func() {
		for _, v := range newly {
			delete(b, v)
		}
	}()
	for j, term := range atoms[i].Args {
		v := t[j]
		if term.IsConst {
			if !v.IsConst() || v.ConstText() != term.Name {
				return true
			}
			continue
		}
		if bv, bound := b[term.Name]; bound {
			if bv != v {
				return true
			}
			continue
		}
		b[term.Name] = v
		newly = append(newly, term.Name)
	}
	return referenceMatch(atoms, i+1, inst, b, fn)
}

// referenceCandidates returns the ascending indexes of the tuples that
// may match the atom under b: the shortest position index list over
// its constant and bound positions (the first on ties), or every live
// tuple.
func referenceCandidates(r *rel.Relation, a dep.Atom, b binding) []int {
	var best []int
	found := false
	for j, term := range a.Args {
		var v rel.Value
		if term.IsConst {
			v = rel.Const(term.Name)
		} else if bv, bound := b[term.Name]; bound {
			v = bv
		} else {
			continue
		}
		if l := r.MatchingAt(j, v); !found || len(l) < len(best) {
			best, found = l, true
		}
	}
	if found {
		return best
	}
	var all []int
	for i := 0; i < r.Len(); i++ {
		if r.Live(i) {
			all = append(all, i)
		}
	}
	return all
}

// searchPatterns are the conjunctions FuzzSearchMatchesReference runs:
// joins, a self-join cycle, repeated variables, constants and a
// cross product, over R/2 and S/2.
var searchPatterns = [][]dep.Atom{
	{dep.NewAtom("R", dep.Var("x"), dep.Var("y"))},
	{dep.NewAtom("R", dep.Var("x"), dep.Var("y")), dep.NewAtom("S", dep.Var("y"), dep.Var("z"))},
	{dep.NewAtom("R", dep.Var("x"), dep.Var("y")), dep.NewAtom("R", dep.Var("y"), dep.Var("x"))},
	{dep.NewAtom("R", dep.Var("x"), dep.Var("x"))},
	{dep.NewAtom("R", dep.Var("x"), dep.Cst("v1")), dep.NewAtom("S", dep.Var("x"), dep.Var("x"))},
	{dep.NewAtom("S", dep.Var("z"), dep.Var("w")), dep.NewAtom("R", dep.Var("x"), dep.Var("y"))},
	{dep.NewAtom("R", dep.Var("x"), dep.Var("y")), dep.NewAtom("S", dep.Var("y"), dep.Var("z")), dep.NewAtom("R", dep.Var("z"), dep.Cst("v2"))},
	{dep.NewAtom("T", dep.Var("x")), dep.NewAtom("R", dep.Var("x"), dep.Var("y"))},
}

// FuzzSearchMatchesReference: on random instances with merges (and so
// tombstoned slots), the slot searcher's ForEach streams exactly the
// reference's bindings in the reference's order, Exists agrees with
// it, and EnumerateDeltaSpec streams the delta reference — for every
// search pattern, with and without a non-empty init binding.
func FuzzSearchMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), uint8(4), uint8(0))
	f.Add(int64(47), uint8(14), uint8(3), uint8(0), uint8(1))
	f.Add(int64(7), uint8(0), uint8(0), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nOld, nMerges, nNew, initSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		inst, counts, changed := buildMergedInstance(rng, 1+int(nOld)%16, int(nMerges)%5, int(nNew)%10)
		oldUnchanged := oldUnchangedCopy(inst, counts, changed)
		inst.Freeze()
		oldUnchanged.Freeze()
		var init binding
		switch initSel % 3 {
		case 1:
			init = binding{"x": rel.Const(fmt.Sprintf("v%d", rng.Intn(6)))}
		case 2:
			init = binding{"y": rel.Null(1 + rng.Intn(5)), "unused": rel.Const("u")}
		}
		spec := DeltaSpec{Old: counts, Changed: changed}
		for pi, atoms := range searchPatterns {
			var want []binding
			referenceForEach(atoms, inst, init, func(b binding) bool {
				want = append(want, b)
				return true
			})
			var got []binding
			forEach(atoms, inst, init, Options{}, func(b binding) bool {
				got = append(got, b)
				return true
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pattern %d init %v: ForEach streamed %v, reference %v", pi, init, got, want)
			}
			if ex := exists(atoms, inst, init, Options{}); ex != (len(want) > 0) {
				t.Fatalf("pattern %d init %v: Exists = %v, reference found %d", pi, init, ex, len(want))
			}
			if init != nil {
				continue // the delta reference enumerates from an empty binding
			}
			wantDelta := deltaReference(atoms, inst, oldUnchanged, Options{})
			if gotDelta := collectDelta(atoms, inst, nil, spec, Options{}); !reflect.DeepEqual(gotDelta, wantDelta) {
				t.Fatalf("pattern %d: EnumerateDeltaSpec streamed %v, reference %v", pi, gotDelta, wantDelta)
			}
		}
	})
}
