package rel

import (
	"math/rand"
	"sort"
	"testing"
)

func TestMergeValueRewritesInPlace(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Null(1))
	inst.Add("E", Const("b"), Const("c"))
	inst.Add("F", Null(1), Null(2))
	changed := inst.MergeValue(Null(1), Const("x"))
	wantE, wantF := []int{0}, []int{0}
	if !equalInts(changed["E"], wantE) || !equalInts(changed["F"], wantF) {
		t.Fatalf("changed = %v, want E:%v F:%v", changed, wantE, wantF)
	}
	if !inst.Contains(Fact{"E", Tuple{Const("a"), Const("x")}}) {
		t.Error("rewritten E tuple missing")
	}
	if inst.Contains(Fact{"E", Tuple{Const("a"), Null(1)}}) {
		t.Error("pre-merge E tuple still present")
	}
	// Untouched tuple keeps its index; indexes stay coherent.
	r := inst.Relation("E")
	if got := r.MatchingAt(0, Const("b")); len(got) != 1 || got[0] != 1 {
		t.Errorf("untouched tuple index disturbed: %v", got)
	}
	if got := r.MatchingAt(1, Const("x")); len(got) != 1 || got[0] != 0 {
		t.Errorf("index for merged-in value: %v", got)
	}
	if got := r.MatchingAt(1, Null(1)); len(got) != 0 {
		t.Errorf("stale index entry for merged-away null: %v", got)
	}
}

func TestMergeValueTombstonesCollisions(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Const("x")) // index 0: survivor of the collision below
	inst.Add("E", Const("a"), Null(1))    // index 1: rewrites into index 0's tuple
	inst.Add("E", Const("b"), Null(1))    // index 2: plain rewrite
	changed := inst.MergeValue(Null(1), Const("x"))
	if !equalInts(changed["E"], []int{2}) {
		t.Fatalf("changed = %v, want E:[2]", changed)
	}
	r := inst.Relation("E")
	if r.Len() != 3 || r.LiveLen() != 2 || inst.NumFacts() != 2 {
		t.Fatalf("Len=%d LiveLen=%d NumFacts=%d, want 3/2/2", r.Len(), r.LiveLen(), inst.NumFacts())
	}
	if r.Live(1) {
		t.Error("collided tuple not tombstoned")
	}
	if !r.Live(0) || !r.Live(2) {
		t.Error("survivor tombstoned")
	}
	// The later-copy collision: a tuple already equal to a rewrite target
	// with a LARGER index dies, and the smaller rewritten index survives.
	inst2 := NewInstance()
	inst2.Add("E", Const("a"), Null(1))    // index 0: rewrite survives
	inst2.Add("E", Const("a"), Const("x")) // index 1: dies to index 0's rewrite
	ch2 := inst2.MergeValue(Null(1), Const("x"))
	if !equalInts(ch2["E"], []int{0}) {
		t.Fatalf("changed = %v, want E:[0]", ch2)
	}
	r2 := inst2.Relation("E")
	if r2.Live(1) || !r2.Live(0) {
		t.Errorf("wrong collision survivor: live = [%v %v], want [true false]",
			r2.Live(0), r2.Live(1))
	}
	// Compaction drops the dead slot and renders identically.
	if got := inst2.Compact().NumFacts(); got != 1 {
		t.Errorf("compacted facts = %d, want 1", got)
	}
}

func TestCompactNoTombstonesReturnsSame(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Const("b"))
	if inst.Compact() != inst {
		t.Error("Compact of tombstone-free instance allocated a copy")
	}
}

// TestMergeValueMatchesReplaceValue is the parity property the chase
// engine rests on: a sequence of in-place merges followed by one final
// compaction yields byte-for-byte the instance that the single-value
// rebuild MapValues(map[Value]Value{from: to}) produces, with live
// tuples in the same relative order. (The test keeps the name of the
// former ReplaceValue helper, which that rebuild replaced.)
func TestMergeValueMatchesReplaceValue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		merged := NewInstance()
		pool := make([]Value, 0, 12)
		for i := 0; i < 6; i++ {
			pool = append(pool, Const(string(rune('a'+i))), Null(i+1))
		}
		rels := []string{"E", "F", "G"}
		for n := 0; n < 30; n++ {
			name := rels[rng.Intn(len(rels))]
			ar := 2 + len(name)%2
			tup := make(Tuple, ar)
			for i := range tup {
				tup[i] = pool[rng.Intn(len(pool))]
			}
			merged.AddTuple(name, tup)
		}
		rebuilt := merged.Clone()
		for m := 0; m < 4; m++ {
			from := Null(1 + rng.Intn(6))
			to := pool[rng.Intn(len(pool))]
			if from == to {
				continue
			}
			merged.MergeValue(from, to)
			rebuilt = rebuilt.MapValues(map[Value]Value{from: to})
		}
		compact := merged.Compact()
		if compact.String() != rebuilt.String() {
			t.Fatalf("trial %d: merged/compacted instance diverges from rebuild:\n%s\n--- vs ---\n%s",
				trial, compact.String(), rebuilt.String())
		}
		// Relative order of live tuples matches the rebuild, fact by fact.
		cf, rf := compact.Facts(), rebuilt.Facts()
		if len(cf) != len(rf) {
			t.Fatalf("trial %d: fact counts diverge: %d vs %d", trial, len(cf), len(rf))
		}
		for i := range cf {
			if cf[i].Key() != rf[i].Key() {
				t.Fatalf("trial %d: fact order diverges at %d: %v vs %v", trial, i, cf[i], rf[i])
			}
		}
		checkIndexCoherence(t, merged)
	}
}

// checkIndexCoherence verifies that the dedup table and posIndex agree
// exactly with the live tuples: every live tuple is found at its own
// index, the table holds one entry per live tuple at a load of at most
// one half, the shared identity array holds ident[i] == i and reaches
// past every one-element posting list, and every such list has cap 1 so
// that no append can write into ident. The posting lists checked
// are the merged view MatchingAt reads (see postingView), and an empty
// entry of own may only shadow a list of base.
func checkIndexCoherence(t *testing.T, inst *Instance) {
	t.Helper()
	for name, s := range inst.rels {
		r := s.r
		live := 0
		for i := 0; i < r.Len(); i++ {
			if !r.Live(i) {
				continue
			}
			live++
			tup := r.TupleAt(i)
			if got := r.find(tup, hashTuple(tup)); got != i {
				t.Fatalf("%s: dedup table finds %v at %d, want %d", name, tup, got, i)
			}
			for p, v := range tup {
				lst := r.MatchingAt(p, v)
				at := sort.SearchInts(lst, i)
				if at >= len(lst) || lst[at] != i {
					t.Fatalf("%s: posIndex[%d][%v] missing live index %d: %v", name, p, v, i, lst)
				}
			}
		}
		if live != r.LiveLen() {
			t.Fatalf("%s: LiveLen=%d but %d live slots", name, r.LiveLen(), live)
		}
		if cap(r.base) != len(r.base) {
			t.Fatalf("%s: base window of %d tuples has cap %d", name, len(r.base), cap(r.base))
		}
		for i := range r.base {
			if !r.Live(i) {
				t.Fatalf("%s: base slot %d is tombstoned", name, i)
			}
		}
		// Two dedup tables: base's, one entry per base slot, and the
		// tail's, one per live tail slot. Each entry names a slot of
		// its own part.
		tables := []struct {
			part    string
			slots   []int32
			lo, hi  int
			entries int
		}{
			{"base", r.baseSlots, 0, len(r.base), len(r.base)},
			{"tail", r.slots, len(r.base), r.Len(), live - len(r.base)},
		}
		for _, tbl := range tables {
			entries := 0
			for _, e := range tbl.slots {
				if e == 0 {
					continue
				}
				entries++
				if i := int(e) - 1; i < tbl.lo || i >= tbl.hi {
					t.Fatalf("%s: %s dedup table names slot %d outside [%d, %d)", name, tbl.part, i, tbl.lo, tbl.hi)
				}
			}
			if entries != tbl.entries {
				t.Fatalf("%s: %s dedup table has %d entries for %d live tuples", name, tbl.part, entries, tbl.entries)
			}
			if n := len(tbl.slots); n&(n-1) != 0 || 2*entries > n {
				t.Fatalf("%s: %s dedup table of %d slots holds %d entries", name, tbl.part, n, entries)
			}
		}
		if n := identBreaks(identLen()); n != 0 {
			t.Fatalf("%s: %d entries of the identity array do not hold their index", name, n)
		}
		for p := 0; p < r.Arity(); p++ {
			for v, lst := range r.posIndex[p].own {
				if len(lst) == 0 && len(r.posIndex[p].base[v]) == 0 {
					t.Fatalf("%s: empty index entry kept for %v at %d with nothing to shadow", name, v, p)
				}
			}
			total := 0
			for v, lst := range postingView(r, p) {
				if len(lst) == 0 {
					t.Fatalf("%s: empty index list kept for %v at %d", name, v, p)
				}
				if len(lst) == 1 && cap(lst) != 1 {
					t.Fatalf("%s: singleton list for %v at %d has cap %d", name, v, p, cap(lst))
				}
				if len(lst) == 1 && lst[0] >= identLen() {
					t.Fatalf("%s: singleton list for %v at %d holds %d, past the identity array's %d entries", name, v, p, lst[0], identLen())
				}
				total += len(lst)
				for k, idx := range lst {
					if k > 0 && lst[k-1] >= idx {
						t.Fatalf("%s: posIndex[%d][%v] not ascending: %v", name, p, v, lst)
					}
					if !r.Live(idx) {
						t.Fatalf("%s: dead index %d in posIndex[%d][%v]", name, idx, p, v)
					}
					if r.TupleAt(idx)[p] != v {
						t.Fatalf("%s: posIndex[%d][%v] points at tuple %v", name, p, v, r.TupleAt(idx))
					}
				}
			}
			if total != live {
				t.Fatalf("%s: posIndex[%d] covers %d entries for %d live tuples", name, p, total, live)
			}
		}
	}
}

// postingView returns the posting lists of position p as MatchingAt
// reads them: base's lists, overridden by own's, with the values an
// empty entry of own shadows left out.
func postingView(r *Relation, p int) map[Value][]int {
	out := make(map[Value][]int)
	for v, lst := range r.posIndex[p].base {
		out[v] = lst
	}
	for v, lst := range r.posIndex[p].own {
		if len(lst) == 0 {
			delete(out, v)
		} else {
			out[v] = lst
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
