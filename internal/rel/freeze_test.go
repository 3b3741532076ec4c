package rel

import (
	"sync"
	"testing"
)

func TestFreezeBlocksMutation(t *testing.T) {
	inst := NewInstance()
	inst.Add("R", Const("a"), Const("b"))
	if inst.Frozen() {
		t.Fatal("fresh instance reports frozen")
	}
	inst.Freeze()
	if !inst.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	mustPanic(t, "AddTuple", func() { inst.Add("R", Const("c"), Const("d")) })
	mustPanic(t, "RemoveLastTuple", func() { inst.RemoveLastTuple("R") })
}

func TestFrozenInstanceStillReadable(t *testing.T) {
	inst := NewInstance()
	inst.Add("R", Const("a"), Null(1))
	inst.Freeze()
	if inst.NumFacts() != 1 || !inst.Contains(Fact{Rel: "R", Args: Tuple{Const("a"), Null(1)}}) {
		t.Fatal("reads broken after Freeze")
	}
	if len(inst.Facts()) != 1 {
		t.Fatal("Facts broken after Freeze")
	}
}

func TestCloneOfFrozenIsMutable(t *testing.T) {
	inst := NewInstance()
	inst.Add("R", Const("a"), Const("b"))
	inst.Freeze()
	c := inst.Clone()
	if c.Frozen() {
		t.Fatal("clone inherited frozen flag")
	}
	if !c.Add("R", Const("c"), Const("d")) {
		t.Fatal("clone refused mutation")
	}
	if inst.NumFacts() != 1 {
		t.Fatal("mutating the clone changed the frozen original")
	}
}

func TestFrozenHasNullsMemo(t *testing.T) {
	for _, tc := range []struct {
		name string
		args Tuple
		want bool
		memo uint32
	}{
		{"with nulls", Tuple{Const("a"), Null(1)}, true, nullsSome},
		{"ground", Tuple{Const("a"), Const("b")}, false, nullsNone},
	} {
		inst := NewInstance()
		inst.AddTuple("R", tc.args)
		if inst.HasNulls() != tc.want || inst.nulls.Load() != 0 {
			t.Fatalf("%s: unfrozen HasNulls = %v (memo %d), want %v and no memo", tc.name, inst.HasNulls(), inst.nulls.Load(), tc.want)
		}
		inst.Freeze()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := inst.HasNulls(); got != tc.want {
					t.Errorf("%s: frozen HasNulls = %v, want %v", tc.name, got, tc.want)
				}
			}()
		}
		wg.Wait()
		if got := inst.nulls.Load(); got != tc.memo {
			t.Fatalf("%s: memo = %d, want %d", tc.name, got, tc.memo)
		}
		if got := inst.HasNulls(); got != tc.want {
			t.Fatalf("%s: memoized HasNulls = %v, want %v", tc.name, got, tc.want)
		}
		// A clone is mutable again and scans afresh.
		c := inst.Clone()
		c.Add("S", Null(7))
		if !c.HasNulls() || c.nulls.Load() != 0 {
			t.Fatalf("%s: clone with an added null: HasNulls = %v (memo %d)", tc.name, c.HasNulls(), c.nulls.Load())
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on frozen instance did not panic", name)
		}
	}()
	f()
}
