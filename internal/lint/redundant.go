package lint

import (
	"strings"

	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// redundantAnalyzer finds t-s tgds that are logically implied by the
// other t-s tgds, via the standard freezing test: freeze the candidate's
// body into a canonical target instance, fire the remaining t-s tgds
// over it once (their heads land in the source schema, so no chaining is
// possible), and ask whether the frozen head is already entailed. A hit
// means the dependency adds no constraint and can be dropped.
var redundantAnalyzer = &Analyzer{
	Name:   "redundant",
	Doc:    "t-s tgds implied by the other t-s tgds",
	Checks: []string{"redundant-tgd"},
	Run:    runRedundant,
}

func runRedundant(p *Pass) {
	ts := p.Setting.TS
	if len(ts) < 2 {
		return
	}
	for i, d := range ts {
		frozen, head, vals := freezeBody(d)
		// Derive, per other tgd, the source facts it forces on the
		// frozen target instance.
		var derived []*rel.Instance
		var labels []string
		for j, e := range ts {
			if j == i {
				continue
			}
			derived = append(derived, applyOnce(e, frozen))
			labels = append(labels, e.Label)
		}
		impliedBy := implies(head, vals, derived, labels)
		if impliedBy == nil {
			continue
		}
		p.Report(Diagnostic{
			Check:    "redundant-tgd",
			Severity: SeverityInfo,
			Line:     d.Span.Line,
			Col:      d.Span.Col,
			Message: d.Label + " is implied by " + strings.Join(impliedBy, ", ") +
				" and can be removed without changing the set of solutions",
			Witness: &Witness{TGD: d.Label, ImpliedBy: impliedBy},
		})
	}
}

// implies reports which other t-s tgds entail the candidate's head,
// compiled over its frozen body's slot vector vals: first each single
// tgd (for a minimal witness), then all of them jointly.
func implies(head *hom.Conj, vals []rel.Value, derived []*rel.Instance, labels []string) []string {
	for j, inst := range derived {
		if head.Exists(inst, vals, hom.Options{}) {
			return []string{labels[j]}
		}
	}
	if len(derived) < 2 {
		return nil
	}
	joint := rel.NewInstance()
	for _, inst := range derived {
		joint.AddAll(inst)
	}
	if head.Exists(joint, vals, hom.Options{}) {
		return append([]string(nil), labels...)
	}
	return nil
}

// freezeBody builds the canonical instance of a tgd body: every
// variable becomes a distinct frozen constant (prefixed so it cannot
// collide with user constants), every constant stays itself. It also
// compiles the tgd's head with the body's variables pre-bound, and
// returns the slot vector that binds each to its frozen constant.
func freezeBody(d dep.TGD) (*rel.Instance, *hom.Conj, []rel.Value) {
	inst := rel.NewInstance()
	var vars hom.Vars
	var vals []rel.Value
	for _, a := range d.Body {
		tuple := make(rel.Tuple, len(a.Args))
		for k, t := range a.Args {
			if t.IsConst {
				tuple[k] = rel.Const(t.Name)
				continue
			}
			s := vars.Slot(t.Name)
			if s == len(vals) {
				vals = append(vals, rel.Const("\x00frz:"+t.Name))
			}
			tuple[k] = vals[s]
		}
		inst.AddTuple(a.Rel, tuple)
	}
	head := vars.Compile(d.Head)
	return inst, head, append(vals, make([]rel.Value, head.Slots()-len(vals))...)
}

// applyOnce fires a t-s tgd over the target instance, materializing its
// head (with fresh nulls for existentials) for every body match.
func applyOnce(e dep.TGD, target *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	var nulls rel.NullSource
	var vars hom.Vars
	body := vars.Compile(e.Body)
	nbody := vars.Len()
	head := vars.Atoms(e.Head)
	body.ForEach(target, make([]rel.Value, vars.Len()), hom.Options{}, func(vals []rel.Value) bool {
		for s := nbody; s < len(vals); s++ {
			vals[s] = nulls.Fresh()
		}
		for _, a := range head {
			out.AddOwnedTuple(a.Rel, a.AppendTuple(make(rel.Tuple, 0, len(a.Args)), vals))
		}
		return true
	})
	return out
}
