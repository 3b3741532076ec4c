package hom

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rel"
)

// buildMergedInstance builds an instance in three phases — old tuples,
// egd-style merges, appended tuples — returning the instance, the
// watermark taken after the old phase, and the changed-index lists the
// merges produced (filtered the way the chase does: live, below the
// watermark, sorted, deduplicated).
func buildMergedInstance(rng *rand.Rand, nOld, nMerges, nNew int) (*rel.Instance, Delta, map[string][]int) {
	inst := rel.NewInstance()
	val := func() rel.Value {
		if rng.Intn(3) == 0 {
			return rel.Null(1 + rng.Intn(5))
		}
		return rel.Const(fmt.Sprintf("v%d", rng.Intn(6)))
	}
	for k := 0; k < nOld; k++ {
		inst.Add("R", val(), val())
		if k%3 == 0 {
			inst.Add("S", val(), val())
		}
	}
	counts := Delta(inst.TupleCounts())
	changedRaw := map[string]map[int]bool{}
	for m := 0; m < nMerges; m++ {
		from := rel.Null(1 + rng.Intn(5))
		to := val()
		if from == to {
			continue
		}
		for name, idxs := range inst.MergeValue(from, to) {
			if changedRaw[name] == nil {
				changedRaw[name] = map[int]bool{}
			}
			for _, i := range idxs {
				changedRaw[name][i] = true
			}
		}
	}
	for k := 0; k < nNew; k++ {
		inst.Add("R", val(), val())
		if k%4 == 0 {
			inst.Add("S", val(), val())
		}
	}
	changed := map[string][]int{}
	for name, set := range changedRaw {
		r := inst.Relation(name)
		var lst []int
		for i := range set {
			if i < counts[name] && r.Live(i) {
				lst = append(lst, i)
			}
		}
		if len(lst) > 0 {
			sort.Ints(lst)
			changed[name] = lst
		}
	}
	return inst, counts, changed
}

// oldUnchangedCopy extracts the sub-instance of live old-segment tuples
// that no merge rewrote — the tuples whose bindings the chase has
// already handled.
func oldUnchangedCopy(inst *rel.Instance, counts Delta, changed map[string][]int) *rel.Instance {
	out := rel.NewInstance()
	for _, name := range inst.RelationNames() {
		r := inst.Relation(name)
		ch := changed[name]
		for i := 0; i < counts[name] && i < r.Len(); i++ {
			if !r.Live(i) {
				continue
			}
			at := sort.SearchInts(ch, i)
			if at < len(ch) && ch[at] == i {
				continue
			}
			out.AddTuple(name, r.TupleAt(i))
		}
	}
	return out
}

// TestEnumerateDeltaSpecMatchesReference: on random instances with an
// old segment, in-place merges, and appended tuples,
// EnumerateDeltaSpec streams exactly the full enumeration minus the
// bindings realizable over unchanged old tuples, in the full
// enumeration's order.
func TestEnumerateDeltaSpecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		inst, counts, changed := buildMergedInstance(rng, 3+rng.Intn(12), 1+rng.Intn(3), rng.Intn(8))
		oldUnchanged := oldUnchangedCopy(inst, counts, changed)
		inst.Freeze()
		oldUnchanged.Freeze()
		for pi, atoms := range deltaTestPatterns {
			want := deltaReference(atoms, inst, oldUnchanged, Options{})
			spec := DeltaSpec{Old: counts, Changed: changed}
			got := collectDelta(atoms, inst, nil, spec, Options{})
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

// TestEnumerateDeltaSpecChangedOnly: with no appended tuples at all, a
// non-empty changed list alone re-enumerates the affected bindings (the
// merged-value delta), and an empty spec returns nothing.
func TestEnumerateDeltaSpecChangedOnly(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("R", rel.Const("a"), rel.Null(1))
	inst.Add("R", rel.Const("c"), rel.Const("d"))
	counts := Delta(inst.TupleCounts())
	changedMap := inst.MergeValue(rel.Null(1), rel.Const("c"))
	inst.Freeze()
	atoms := deltaTestPatterns[1] // R(x,y), R(y,z)
	spec := DeltaSpec{Old: counts, Changed: changedMap}
	got := collectDelta(atoms, inst, nil, spec, Options{})
	// After the merge R = {(a,c), (c,d)}: the merge created the join
	// x=a, y=c, z=d between two OLD tuples — exactly the binding a pure
	// count watermark can never surface. It must appear here, and the
	// binding over the unchanged tuple alone must stay skipped.
	want := deltaReference(atoms, inst, oldUnchangedCopy(inst, counts, changedMap), Options{})
	if len(want) != 1 {
		t.Fatalf("reference sanity: %d bindings, want exactly the merge-created join", len(want))
	}
	if len(got) != 1 || bindingKey(got[0]) != bindingKey(want[0]) {
		t.Fatalf("changed-only: got %v, want %s", got, bindingKey(want[0]))
	}
	empty := collectDelta(atoms, inst, nil, DeltaSpec{Old: counts}, Options{})
	if len(empty) != 0 {
		t.Fatalf("no-new no-changed spec returned %d bindings", len(empty))
	}
}

// TestEnumerateDeltaSpecKeepsEachBindingOnce: fn sees each binding
// once, including bindings that combine a changed tuple with a new one.
// The test patterns' atoms are all variables, so a binding fixes its
// tuples and a repeated binding is a repeated visit. In the chase every
// extra visit is a wasted head check.
func TestEnumerateDeltaSpecKeepsEachBindingOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		inst, counts, changed := buildMergedInstance(rng, 3+rng.Intn(12), 1+rng.Intn(3), rng.Intn(8))
		inst.Freeze()
		for pi, atoms := range deltaTestPatterns {
			got := collectDelta(atoms, inst, nil, DeltaSpec{Old: counts, Changed: changed}, Options{})
			if dup := firstRepeat(got); dup >= 0 {
				t.Fatalf("trial %d pattern %d: binding %s streamed twice", trial, pi, bindingKey(got[dup]))
			}
		}
	}
}

// firstRepeat returns the index of the first binding equal to an
// earlier one, or -1.
func firstRepeat(bs []Binding) int {
	seen := map[string]bool{}
	for i, b := range bs {
		k := bindingKey(b)
		if seen[k] {
			return i
		}
		seen[k] = true
	}
	return -1
}

// FuzzEnumerateDeltaSpec: on merged instances sized by the input, every
// test pattern's delta stream has the reference content and order, and
// no binding twice.
func FuzzEnumerateDeltaSpec(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), uint8(4))
	f.Add(int64(47), uint8(14), uint8(3), uint8(0))
	f.Add(int64(7), uint8(0), uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nOld, nMerges, nNew uint8) {
		rng := rand.New(rand.NewSource(seed))
		inst, counts, changed := buildMergedInstance(rng, 1+int(nOld)%16, int(nMerges)%5, int(nNew)%10)
		oldUnchanged := oldUnchangedCopy(inst, counts, changed)
		inst.Freeze()
		oldUnchanged.Freeze()
		spec := DeltaSpec{Old: counts, Changed: changed}
		for pi, atoms := range deltaTestPatterns {
			want := deltaReference(atoms, inst, oldUnchanged, Options{})
			got := collectDelta(atoms, inst, nil, spec, Options{})
			if len(got) != len(want) {
				t.Fatalf("pattern %d: got %d bindings, want %d", pi, len(got), len(want))
			}
			for i := range got {
				if bindingKey(got[i]) != bindingKey(want[i]) {
					t.Fatalf("pattern %d: binding %d is %s, want %s", pi, i, bindingKey(got[i]), bindingKey(want[i]))
				}
			}
			if dup := firstRepeat(got); dup >= 0 {
				t.Fatalf("pattern %d: binding %s streamed twice", pi, bindingKey(got[dup]))
			}
		}
	})
}
