package rel

import (
	"testing"
	"testing/quick"
)

func TestInstanceAddDedup(t *testing.T) {
	inst := NewInstance()
	if !inst.Add("E", Const("a"), Const("b")) {
		t.Fatal("first Add must report true")
	}
	if inst.Add("E", Const("a"), Const("b")) {
		t.Fatal("duplicate Add must report false")
	}
	if inst.NumFacts() != 1 {
		t.Fatalf("NumFacts = %d, want 1", inst.NumFacts())
	}
}

func TestInstanceArityMismatchPanics(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Const("b"))
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	inst.Add("E", Const("a"))
}

func TestInstanceContains(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Const("b"))
	if !inst.Contains(Fact{"E", Tuple{Const("a"), Const("b")}}) {
		t.Error("Contains missed an added fact")
	}
	if inst.Contains(Fact{"E", Tuple{Const("b"), Const("a")}}) {
		t.Error("Contains found an absent fact")
	}
	if inst.Contains(Fact{"H", Tuple{Const("a"), Const("b")}}) {
		t.Error("Contains found a fact in an absent relation")
	}
}

func TestInstanceFactsDeterministic(t *testing.T) {
	inst := NewInstance()
	inst.Add("H", Const("x"), Const("y"))
	inst.Add("E", Const("a"), Const("b"))
	inst.Add("E", Const("b"), Const("c"))
	facts := inst.Facts()
	if len(facts) != 3 {
		t.Fatalf("got %d facts", len(facts))
	}
	if facts[0].Rel != "E" || facts[1].Rel != "E" || facts[2].Rel != "H" {
		t.Errorf("facts not sorted by relation: %v", facts)
	}
}

func TestInstanceCloneIndependence(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Const("b"))
	c := inst.Clone()
	c.Add("E", Const("b"), Const("c"))
	if inst.NumFacts() != 1 {
		t.Error("Clone shares storage with original")
	}
	if c.NumFacts() != 2 {
		t.Error("Clone lost facts")
	}
}

func TestUnionAndContainsAll(t *testing.T) {
	a := NewInstance()
	a.Add("E", Const("a"), Const("b"))
	b := NewInstance()
	b.Add("H", Const("a"), Const("b"))
	u := Union(a, b)
	if u.NumFacts() != 2 {
		t.Fatalf("union has %d facts", u.NumFacts())
	}
	if !u.ContainsAll(a) || !u.ContainsAll(b) {
		t.Error("union must contain both operands")
	}
	if a.ContainsAll(u) {
		t.Error("operand must not contain strict superset")
	}
}

func TestInstanceEqual(t *testing.T) {
	a := NewInstance()
	a.Add("E", Const("a"), Const("b"))
	b := NewInstance()
	b.Add("E", Const("a"), Const("b"))
	if !a.Equal(b) {
		t.Error("equal instances reported unequal")
	}
	b.Add("E", Const("b"), Const("c"))
	if a.Equal(b) {
		t.Error("unequal instances reported equal")
	}
}

func TestInstanceRestrict(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Const("b"))
	inst.Add("H", Const("x"), Const("y"))
	s := SchemaOf("E", 2)
	r := inst.Restrict(s)
	if r.NumFacts() != 1 || r.Relation("H") != nil {
		t.Errorf("Restrict kept wrong facts: %v", r)
	}
}

func TestActiveDomainAndNulls(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Null(1))
	inst.Add("E", Null(1), Null(2))
	dom := inst.ActiveDomain()
	if len(dom) != 3 {
		t.Errorf("active domain size = %d, want 3", len(dom))
	}
	nulls := inst.Nulls()
	if len(nulls) != 2 {
		t.Errorf("nulls size = %d, want 2", len(nulls))
	}
	if !inst.HasNulls() {
		t.Error("HasNulls = false")
	}
	ground := NewInstance()
	ground.Add("E", Const("a"), Const("b"))
	if ground.HasNulls() {
		t.Error("ground instance reports nulls")
	}
}

// TestReplaceValueMergesTuples checks the single-value rebuild
// MapValues(map[Value]Value{from: to}), which replaced the former
// ReplaceValue helper: tuples that become equal collapse into one, the
// receiver is left untouched, and in-place MergeValue keeps the same
// tuple.
func TestReplaceValueMergesTuples(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Null(1), Const("b"))
	inst.Add("E", Const("a"), Const("b"))
	out := inst.MapValues(map[Value]Value{Null(1): Const("a")})
	if out.NumFacts() != 1 {
		t.Errorf("MapValues should merge duplicate tuples, got %d facts:\n%s", out.NumFacts(), out)
	}
	if inst.NumFacts() != 2 {
		t.Error("MapValues mutated its receiver")
	}
	inst.MergeValue(Null(1), Const("a"))
	if inst.Compact().String() != out.String() {
		t.Errorf("MergeValue kept %s, rebuild kept %s", inst.Compact(), out)
	}
}

func TestMapValues(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Null(1), Null(2))
	m := map[Value]Value{Null(1): Const("a")}
	out := inst.MapValues(m)
	want := Fact{"E", Tuple{Const("a"), Null(2)}}
	if !out.Contains(want) {
		t.Errorf("MapValues result missing %v:\n%s", want, out)
	}
}

func TestValidateAgainst(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Const("b"))
	if err := inst.ValidateAgainst(SchemaOf("E", 2)); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	if err := inst.ValidateAgainst(SchemaOf("E", 3)); err == nil {
		t.Error("arity mismatch not detected")
	}
	if err := inst.ValidateAgainst(SchemaOf("H", 2)); err == nil {
		t.Error("undeclared relation not detected")
	}
}

func TestPositionIndexConsistency(t *testing.T) {
	inst := NewInstance()
	inst.Add("E", Const("a"), Const("b"))
	inst.Add("E", Const("a"), Const("c"))
	inst.Add("E", Const("b"), Const("c"))
	r := inst.Relation("E")
	idxs := r.MatchingAt(0, Const("a"))
	if len(idxs) != 2 {
		t.Fatalf("MatchingAt(0,a) returned %d tuples, want 2", len(idxs))
	}
	for _, i := range idxs {
		if r.TupleAt(i)[0] != Const("a") {
			t.Errorf("index returned wrong tuple %v", r.TupleAt(i))
		}
	}
	if len(r.MatchingAt(1, Const("a"))) != 0 {
		t.Error("MatchingAt(1,a) should be empty")
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema()
	if err := s.Add("E", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("E", 2); err != nil {
		t.Errorf("idempotent redeclare rejected: %v", err)
	}
	if err := s.Add("E", 3); err == nil {
		t.Error("conflicting redeclare accepted")
	}
	if ar, ok := s.Arity("E"); !ok || ar != 2 {
		t.Errorf("Arity(E) = %d,%v", ar, ok)
	}
	if s.Has("H") {
		t.Error("Has(H) true for undeclared relation")
	}
}

func TestSchemaDisjointUnion(t *testing.T) {
	src := SchemaOf("E", 2, "D", 2)
	tgt := SchemaOf("H", 2)
	if !src.Disjoint(tgt) {
		t.Error("disjoint schemas reported overlapping")
	}
	overlap := SchemaOf("E", 2)
	if src.Disjoint(overlap) {
		t.Error("overlapping schemas reported disjoint")
	}
	u, err := src.Union(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 {
		t.Errorf("union has %d relations, want 3", u.Len())
	}
	conflicting := SchemaOf("E", 3)
	if _, err := src.Union(conflicting); err == nil {
		t.Error("conflicting union accepted")
	}
}

func TestSchemaString(t *testing.T) {
	s := SchemaOf("H", 2, "E", 2)
	if got := s.String(); got != "E/2, H/2" {
		t.Errorf("schema string = %q", got)
	}
}

// Property: Add/Contains agree with a reference map implementation.
func TestInstanceSetSemanticsProperty(t *testing.T) {
	f := func(ops []struct {
		A, B uint8
	}) bool {
		inst := NewInstance()
		ref := make(map[[2]uint8]bool)
		for _, op := range ops {
			added := inst.Add("R", Const(string(rune('a'+op.A%8))), Const(string(rune('a'+op.B%8))))
			key := [2]uint8{op.A % 8, op.B % 8}
			if added == ref[key] {
				return false // added must be !present
			}
			ref[key] = true
		}
		return inst.NumFacts() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Union is commutative and idempotent on fact sets.
func TestUnionPropertyCommutative(t *testing.T) {
	build := func(pairs []struct{ A, B uint8 }) *Instance {
		inst := NewInstance()
		for _, p := range pairs {
			inst.Add("R", Const(string(rune('a'+p.A%6))), Const(string(rune('a'+p.B%6))))
		}
		return inst
	}
	f := func(xs, ys []struct{ A, B uint8 }) bool {
		a, b := build(xs), build(ys)
		ab := Union(a, b)
		ba := Union(b, a)
		return ab.Equal(ba) && Union(a, a).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
