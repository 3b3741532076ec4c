package hom

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dep"
	"repro/internal/rel"
)

func bindingKey(b Binding) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%v;", k, b[k])
	}
	return sb.String()
}

// enumerateDeltaSpec runs Conj.EnumerateDeltaSpec on atoms compiled
// with init's variables pre-bound, handing fn each binding by name.
func enumerateDeltaSpec(atoms []dep.Atom, inst *rel.Instance, init Binding, spec DeltaSpec, opts Options, fn func(Binding) bool) bool {
	vars, c, vals := compileEdge(atoms, init)
	return c.EnumerateDeltaSpec(inst, vals, spec, opts, func(vals []rel.Value) bool {
		return fn(vars.binding(vals))
	})
}

// collectDelta runs EnumerateDeltaSpec to completion and returns a copy
// of every binding it streams, in stream order.
func collectDelta(atoms []dep.Atom, inst *rel.Instance, init Binding, spec DeltaSpec, opts Options) []Binding {
	var out []Binding
	enumerateDeltaSpec(atoms, inst, init, spec, opts, func(b Binding) bool {
		out = append(out, b)
		return true
	})
	return out
}

// deltaReference computes what EnumerateDeltaSpec must stream for a
// spec with only an Old watermark: the reference search's full
// enumeration order, minus the bindings that already exist against the
// old prefix of the instance (distinct tuple-index vectors yield
// distinct bindings here because relations deduplicate tuples, so the
// set difference is exact).
func deltaReference(atoms []dep.Atom, full, old *rel.Instance, opts Options) []Binding {
	seen := map[string]bool{}
	referenceForEach(atoms, old, nil, func(b Binding) bool {
		seen[bindingKey(b)] = true
		return true
	})
	var out []Binding
	referenceForEach(atoms, full, nil, func(b Binding) bool {
		if !seen[bindingKey(b)] {
			out = append(out, b)
		}
		return true
	})
	return out
}

// buildSplitInstance adds nOld then nNew random edges to R (and a few
// to S), returning the instance, the old-prefix copy, and the delta
// watermark taken between the two phases.
func buildSplitInstance(rng *rand.Rand, nOld, nNew int) (full, old *rel.Instance, delta Delta) {
	full = rel.NewInstance()
	old = rel.NewInstance()
	for k := 0; k < nOld; k++ {
		a := rel.Const(fmt.Sprintf("v%d", rng.Intn(8)))
		b := rel.Const(fmt.Sprintf("v%d", rng.Intn(8)))
		full.Add("R", a, b)
		old.Add("R", a, b)
		if k%3 == 0 {
			full.Add("S", b, a)
			old.Add("S", b, a)
		}
	}
	delta = Delta(full.TupleCounts())
	for k := 0; k < nNew; k++ {
		full.Add("R", rel.Const(fmt.Sprintf("v%d", rng.Intn(8))), rel.Const(fmt.Sprintf("v%d", rng.Intn(8))))
		if k%4 == 0 {
			full.Add("S", rel.Const(fmt.Sprintf("v%d", rng.Intn(8))), rel.Const(fmt.Sprintf("w%d", rng.Intn(4))))
		}
	}
	return full, old, delta
}

var deltaTestPatterns = [][]dep.Atom{
	{dep.NewAtom("R", dep.Var("x"), dep.Var("y"))},
	{dep.NewAtom("R", dep.Var("x"), dep.Var("y")), dep.NewAtom("R", dep.Var("y"), dep.Var("z"))},
	{dep.NewAtom("R", dep.Var("x"), dep.Var("y")), dep.NewAtom("S", dep.Var("y"), dep.Var("z"))},
	{dep.NewAtom("R", dep.Var("x"), dep.Var("x"))},
	{dep.NewAtom("S", dep.Var("x"), dep.Var("y")), dep.NewAtom("R", dep.Var("y"), dep.Var("z")), dep.NewAtom("R", dep.Var("z"), dep.Var("w"))},
}

// TestEnumerateDeltaMatchesReference: on random old/new instance
// splits, EnumerateDeltaSpec with an Old watermark streams exactly the
// full enumeration minus the old-only bindings, in the full
// enumeration's order.
func TestEnumerateDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		full, old, delta := buildSplitInstance(rng, 2+rng.Intn(12), rng.Intn(10))
		full.Freeze()
		old.Freeze()
		for pi, atoms := range deltaTestPatterns {
			want := deltaReference(atoms, full, old, Options{})
			got := collectDelta(atoms, full, nil, DeltaSpec{Old: delta}, Options{})
			if len(got) != len(want) {
				t.Fatalf("trial %d pattern %d: got %d bindings, want %d", trial, pi, len(got), len(want))
			}
			for i := range got {
				if bindingKey(got[i]) != bindingKey(want[i]) {
					t.Fatalf("trial %d pattern %d: binding %d is %s, want %s (order or content diverged)",
						trial, pi, i, bindingKey(got[i]), bindingKey(want[i]))
				}
			}
		}
	}
}

// TestEnumerateDeltaDegenerateCases: nil and all-zero deltas degrade to
// the full enumeration; a delta with no new tuples streams nothing; fn
// returning false stops the stream.
func TestEnumerateDeltaDegenerateCases(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	full, _, delta := buildSplitInstance(rng, 6, 5)
	full.Freeze()
	atoms := deltaTestPatterns[1]
	fullEnum := collectDelta(atoms, full, nil, DeltaSpec{}, Options{})

	if got := collectDelta(atoms, full, nil, DeltaSpec{}, Options{}); len(got) != len(fullEnum) {
		t.Fatalf("nil delta: got %d bindings, want full %d", len(got), len(fullEnum))
	}
	if got := collectDelta(atoms, full, nil, DeltaSpec{Old: Delta{}}, Options{}); len(got) != len(fullEnum) {
		t.Fatalf("all-new delta: got %d bindings, want full %d", len(got), len(fullEnum))
	}
	if got := collectDelta(atoms, full, nil, DeltaSpec{Old: Delta(full.TupleCounts())}, Options{}); len(got) != 0 {
		t.Fatalf("no-new delta: got %d bindings, want none", len(got))
	}
	if got := collectDelta(nil, full, nil, DeltaSpec{Old: delta}, Options{}); got != nil {
		t.Fatalf("empty atom list with a watermark: got %d bindings, want none", len(got))
	}

	// fn returning false stops the stream after that binding: what it
	// saw is a prefix of the full stream, and the call reports the stop.
	all := collectDelta(atoms, full, nil, DeltaSpec{Old: delta}, Options{})
	if len(all) == 0 {
		t.Fatal("test instance has no delta-touching binding")
	}
	for stop := 1; stop <= len(all); stop++ {
		var seen []Binding
		done := enumerateDeltaSpec(atoms, full, nil, DeltaSpec{Old: delta}, Options{}, func(b Binding) bool {
			seen = append(seen, b)
			return len(seen) < stop
		})
		if done || len(seen) != stop {
			t.Fatalf("stop after %d: saw %d bindings, ran to completion %v", stop, len(seen), done)
		}
		for i := range seen {
			if bindingKey(seen[i]) != bindingKey(all[i]) {
				t.Fatalf("stop after %d: binding %d is %s, want %s", stop, i, bindingKey(seen[i]), bindingKey(all[i]))
			}
		}
	}
	if !enumerateDeltaSpec(atoms, full, nil, DeltaSpec{Old: delta}, Options{}, func(Binding) bool { return true }) {
		t.Fatal("a stream fn never stopped reported a stop")
	}

	// A stale watermark larger than the relation (possible after an
	// instance shrinks) clamps instead of panicking.
	over := Delta{"R": 1 << 30, "S": 1 << 30}
	if got := collectDelta(atoms, full, nil, DeltaSpec{Old: over}, Options{}); len(got) != 0 {
		t.Fatalf("oversized watermark: got %d bindings, want none", len(got))
	}
}
