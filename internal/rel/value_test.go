package rel

import (
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	c := Const("a")
	n := Null(3)
	if !c.IsConst() || c.IsNull() {
		t.Errorf("Const(a) kind wrong: %v", c.Kind())
	}
	if !n.IsNull() || n.IsConst() {
		t.Errorf("Null(3) kind wrong: %v", n.Kind())
	}
	if c.ConstText() != "a" {
		t.Errorf("ConstText = %q, want a", c.ConstText())
	}
	if n.NullID() != 3 {
		t.Errorf("NullID = %d, want 3", n.NullID())
	}
}

func TestValueStringRendering(t *testing.T) {
	if got := Const("swissprot").String(); got != "swissprot" {
		t.Errorf("Const string = %q", got)
	}
	if got := Null(7).String(); got != "_N7" {
		t.Errorf("Null string = %q", got)
	}
}

func TestValueComparable(t *testing.T) {
	m := map[Value]int{
		Const("a"): 1,
		Null(1):    2,
	}
	if m[Const("a")] != 1 || m[Null(1)] != 2 {
		t.Fatal("Value not usable as map key")
	}
	if Const("1") == Null(1) {
		t.Error("constant '1' must differ from null 1")
	}
	if Const("a") != Const("a") {
		t.Error("equal constants must compare equal")
	}
}

func TestValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ConstText on null must panic")
		}
	}()
	_ = Null(1).ConstText()
}

func TestNullIDPanicsOnConst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NullID on const must panic")
		}
	}()
	_ = Const("x").NullID()
}

func TestValueLessTotalOrder(t *testing.T) {
	vals := []Value{Const("a"), Const("b"), Null(1), Null(2)}
	for i := range vals {
		for j := range vals {
			if i < j && !vals[i].Less(vals[j]) {
				t.Errorf("expected %v < %v", vals[i], vals[j])
			}
			if i >= j && vals[i].Less(vals[j]) {
				t.Errorf("unexpected %v < %v", vals[i], vals[j])
			}
		}
	}
}

func TestNullSourceFresh(t *testing.T) {
	var ns NullSource
	a := ns.Fresh()
	b := ns.Fresh()
	if a == b {
		t.Fatal("Fresh returned duplicate nulls")
	}
	if !a.IsNull() || !b.IsNull() {
		t.Fatal("Fresh must return nulls")
	}
}

func TestNullSourceSeen(t *testing.T) {
	var ns NullSource
	ns.Seen(10)
	v := ns.Fresh()
	if v.NullID() <= 10 {
		t.Errorf("Fresh after Seen(10) returned %v", v)
	}
	// Seen with a smaller id must not regress.
	ns.Seen(2)
	w := ns.Fresh()
	if w.NullID() <= v.NullID() {
		t.Errorf("Fresh regressed after Seen(2): %v then %v", v, w)
	}
}

func TestNullSourceSeenIn(t *testing.T) {
	inst := NewInstance()
	inst.Add("R", Const("a"), Null(42))
	var ns NullSource
	ns.SeenIn(inst)
	if v := ns.Fresh(); v.NullID() <= 42 {
		t.Errorf("Fresh after SeenIn returned %v", v)
	}
}

func TestNullSourceDistinctProperty(t *testing.T) {
	// Property: any sequence of Fresh calls yields pairwise distinct nulls.
	f := func(n uint8) bool {
		var ns NullSource
		seen := make(map[Value]bool)
		for i := 0; i < int(n); i++ {
			v := ns.Fresh()
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	orig := Tuple{Const("a"), Const("b")}
	c := orig.Clone()
	c[0] = Const("z")
	if orig[0] != Const("a") {
		t.Error("Clone shares backing array")
	}
}

func TestFactString(t *testing.T) {
	f := Fact{Rel: "E", Args: Tuple{Const("a"), Null(2)}}
	if got := f.String(); got != "E(a, _N2)" {
		t.Errorf("Fact string = %q", got)
	}
}

func TestFactKeyDistinguishesKinds(t *testing.T) {
	f1 := Fact{Rel: "R", Args: Tuple{Const("1")}}
	f2 := Fact{Rel: "R", Args: Tuple{Null(1)}}
	if f1.Key() == f2.Key() {
		t.Error("fact keys must distinguish Const(\"1\") from Null(1)")
	}
}

func TestTupleKeyInjectiveProperty(t *testing.T) {
	// Property: distinct tuples over a small vocabulary have distinct keys.
	mk := func(codes []uint8) Tuple {
		t := make(Tuple, len(codes))
		for i, c := range codes {
			if c%2 == 0 {
				t[i] = Const(string(rune('a' + c%26)))
			} else {
				t[i] = Null(int(c))
			}
		}
		return t
	}
	f := func(a, b []uint8) bool {
		ta, tb := mk(a), mk(b)
		sameKey := tupleKey(ta) == tupleKey(tb)
		same := len(ta) == len(tb)
		if same {
			for i := range ta {
				if ta[i] != tb[i] {
					same = false
					break
				}
			}
		}
		return sameKey == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKeyOfInjectiveProperty(t *testing.T) {
	// Property: KeyOf keys are equal exactly when the tuples are equal,
	// across the inline/spill boundary.
	mk := func(codes []uint8) Tuple {
		t := make(Tuple, len(codes))
		for i, c := range codes {
			if c%2 == 0 {
				t[i] = Const(string(rune('a' + c%26)))
			} else {
				t[i] = Null(int(c))
			}
		}
		return t
	}
	f := func(a, b []uint8) bool {
		ta, tb := mk(a), mk(b)
		sameKey := KeyOf(ta) == KeyOf(tb)
		same := len(ta) == len(tb)
		if same {
			for i := range ta {
				if ta[i] != tb[i] {
					same = false
					break
				}
			}
		}
		return sameKey == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKeyOfZeroAllocsInline(t *testing.T) {
	// The certain-answer hot loops key every candidate tuple; tuples up
	// to the inline width must key without allocating.
	tup := Tuple{Const("a"), Null(2), Const("b"), Const("c")}
	if avg := testing.AllocsPerRun(100, func() {
		_ = KeyOf(tup)
	}); avg != 0 {
		t.Fatalf("KeyOf(arity-4) allocates %.1f per run, want 0", avg)
	}
	seen := make(map[TupleKey]bool, 4)
	seen[KeyOf(tup)] = true
	if avg := testing.AllocsPerRun(100, func() {
		if !seen[KeyOf(tup)] {
			t.Fatal("lookup miss")
		}
	}); avg != 0 {
		t.Fatalf("map lookup by KeyOf allocates %.1f per run, want 0", avg)
	}
}
