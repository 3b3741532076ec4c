// Package frozenmut exercises the freeze-after-build analyzer.
package frozenmut

import "repro/internal/rel"

func freezeThenMutate() {
	inst := rel.NewInstance()
	inst.Add("R", rel.Const("a"))
	inst.Freeze()
	inst.Add("R", rel.Const("b")) // want `Add called on inst, frozen at line`
}

func freezeThenClone() {
	inst := rel.NewInstance()
	inst.Freeze()
	j := inst.Clone()
	j.Add("R", rel.Const("a")) // ok: the clone is mutable
}

func reassignClears() {
	inst := rel.NewInstance()
	inst.Freeze()
	inst = rel.NewInstance()
	inst.Add("R", rel.Const("a")) // ok: reassigned to a fresh instance
}

type holder struct{ inst *rel.Instance }

func fieldReceiver(s *holder) {
	s.inst.Freeze()
	s.inst.AddTuple("R", rel.Tuple{rel.Const("x")}) // want `AddTuple called on s.inst, frozen at line`
}

func freezeThenOwnedAddReserveMerge() {
	inst := rel.NewInstance()
	inst.Freeze()
	inst.AddOwnedTuple("R", rel.Tuple{rel.Const("x")}) // want `AddOwnedTuple called on inst, frozen at line`
	inst.Reserve("R", 1, 8)                            // want `Reserve called on inst, frozen at line`
	inst.MergeValue(rel.Null(1), rel.Const("a"))       // want `MergeValue called on inst, frozen at line`
	inst.ShareRelation(rel.NewInstance(), "R")         // want `ShareRelation called on inst, frozen at line`
}

func mutateBeforeFreeze() {
	inst := rel.NewInstance()
	inst.Add("R", rel.Const("a")) // ok: not frozen yet
	inst.Freeze()
}

func goLocalInstance(done chan struct{}) {
	go func() {
		local := rel.NewInstance()
		local.Add("R", rel.Const("x")) // ok: declared inside the closure
		close(done)
	}()
}

func goMutation(shared *rel.Instance, done chan struct{}) {
	go func() {
		shared.AddFact(rel.Fact{}) // want `AddFact mutates captured instance shared inside a goroutine`
		close(done)
	}()
}

func goOwnedAddReserveMerge(shared *rel.Instance, done chan struct{}) {
	go func() {
		shared.AddOwnedTuple("R", rel.Tuple{rel.Const("x")}) // want `AddOwnedTuple mutates captured instance shared inside a goroutine`
		shared.Reserve("R", 1, 8)                            // want `Reserve mutates captured instance shared inside a goroutine`
		shared.MergeValue(rel.Null(1), rel.Const("a"))       // want `MergeValue mutates captured instance shared inside a goroutine`
		shared.AddAll(rel.NewInstance())                     // want `AddAll mutates captured instance shared inside a goroutine`
		shared.ShareRelation(rel.NewInstance(), "R")         // want `ShareRelation mutates captured instance shared inside a goroutine`
		close(done)
	}()
}

func goReadOnly(shared *rel.Instance, out chan int) {
	go func() {
		out <- shared.NumFacts() // ok: reads are safe on a frozen shared instance
	}()
}
