package oracle

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// ErrBudgetExhausted is returned by Chase when the step budget runs out
// before a fixpoint.
var ErrBudgetExhausted = errors.New("oracle: chase step budget exhausted")

// ChaseResult is the outcome of a reference chase run: the fixpoint (or
// the instance at failure or budget exhaustion), the steps taken (egd
// steps included, the failing one too), the egd steps that merged two
// values, and, when an egd equated two distinct constants, its label.
type ChaseResult struct {
	Instance      *rel.Instance
	Steps, Merges int
	Failed        bool
	FailedOn      string
}

// Chase is the reference chase the engine of package chase is checked
// against: a serial naive chase, written to be plainly correct rather
// than fast. Each round visits the dependencies in order. A tgd
// collects every trigger of its body that is unsatisfied (restricted)
// or not yet fired (oblivious) and fires them in order, re-checking
// each first; existential variables get fresh nulls numbered past
// start's, or, with a witness, the values of a homomorphism of the head
// into the witness. An egd repeatedly takes the first violation of its
// body, fails on two constants, and otherwise rebuilds the instance
// with the null replaced by the other value. Rounds repeat until one
// changes nothing.
//
// maxSteps is the exact step budget: a step is refused once Steps
// reaches it, with an error wrapping ErrBudgetExhausted. The result is
// returned alongside every error, so truncated runs compare too.
func Chase(start *rel.Instance, deps []dep.Dependency, witness *rel.Instance, oblivious bool, maxSteps int) (*ChaseResult, error) {
	c := &refChase{res: &ChaseResult{Instance: start.Clone()}, witness: witness, oblivious: oblivious, budget: maxSteps, fired: rel.NewInstance()}
	c.nulls.SeenIn(start)
	for {
		progressed := false
		for di, d := range deps {
			var p bool
			var err error
			switch d := d.(type) {
			case dep.TGD:
				p, err = c.tgd(strconv.Itoa(di), d)
			case dep.EGD:
				p, err = c.egd(d)
			default:
				err = fmt.Errorf("oracle: cannot chase %s", d.DepLabel())
			}
			if err != nil || c.res.Failed {
				return c.res, err
			}
			progressed = progressed || p
		}
		if !progressed {
			return c.res, nil
		}
	}
}

type refChase struct {
	res       *ChaseResult
	nulls     rel.NullSource
	witness   *rel.Instance
	oblivious bool
	budget    int
	// fired is the oblivious chase's record of fired triggers: the
	// relation named after a tgd's position lists the values of its
	// universal variables at each firing.
	fired *rel.Instance
}

func (c *refChase) step(label string) error {
	if c.res.Steps >= c.budget {
		return fmt.Errorf("%w (after %d steps, chasing %s)", ErrBudgetExhausted, c.res.Steps, label)
	}
	c.res.Steps++
	return nil
}

// tgd runs one pass of d, whose fired triggers live in relation
// firedRel of c.fired.
func (c *refChase) tgd(firedRel string, d dep.TGD) (bool, error) {
	inst := c.res.Instance
	// The body's variables take the first slots, in first-occurrence
	// order, so a trigger's universal values are its first nbody slots.
	var vars hom.Vars
	body := vars.Compile(d.Body)
	nbody := vars.Len()
	heads := vars.Atoms(d.Head)
	head := hom.NewConj(heads, nbody)
	trigger := func(b []rel.Value) rel.Fact {
		return rel.Fact{Rel: firedRel, Args: slices.Clone(b[:nbody])}
	}
	active := func(b []rel.Value) bool {
		if c.oblivious {
			return !c.fired.Contains(trigger(b))
		}
		return !head.Exists(inst, b, hom.Options{})
	}
	var triggers [][]rel.Value
	body.ForEach(inst, make([]rel.Value, vars.Len()), hom.Options{}, func(b []rel.Value) bool {
		if active(b) {
			triggers = append(triggers, slices.Clone(b))
		}
		return true
	})
	progressed := false
	for _, b := range triggers {
		if !active(b) {
			continue
		}
		if c.oblivious {
			c.fired.AddFact(trigger(b))
		}
		if err := c.step(d.Label); err != nil {
			return progressed, err
		}
		if len(b) > nbody && c.witness != nil {
			if !head.Exists(c.witness, b, hom.Options{}) {
				return progressed, fmt.Errorf("oracle: witness does not satisfy %s", d.Label)
			}
		} else {
			for s := nbody; s < len(b); s++ {
				b[s] = c.nulls.Fresh()
			}
		}
		for _, a := range heads {
			inst.AddTuple(a.Rel, a.AppendTuple(nil, b))
		}
		progressed = true
	}
	return progressed, nil
}

// egd applies d until it has no violation or the chase fails.
func (c *refChase) egd(d dep.EGD) (bool, error) {
	var vars hom.Vars
	body := vars.Compile(d.Body)
	left, right := vars.Slot(d.Left), vars.Slot(d.Right)
	for progressed := false; ; progressed = true {
		// l == r after the scan means no violation: either the body has
		// no match, or the scan ran to completion on a satisfied one.
		var l, r rel.Value
		body.ForEach(c.res.Instance, make([]rel.Value, vars.Len()), hom.Options{}, func(b []rel.Value) bool {
			l, r = b[left], b[right]
			return l == r
		})
		if l == r {
			return progressed, nil
		}
		if err := c.step(d.Label); err != nil {
			return progressed, err
		}
		if l.IsConst() && r.IsConst() {
			c.res.Failed, c.res.FailedOn = true, d.Label
			return progressed, nil
		}
		if l.IsConst() {
			l, r = r, l
		}
		c.res.Instance = c.res.Instance.MapValues(map[rel.Value]rel.Value{l: r})
		c.res.Merges++
	}
}
