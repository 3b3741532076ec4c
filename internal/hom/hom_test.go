package hom

import (
	"testing"

	"repro/internal/dep"
	"repro/internal/rel"
)

func edgeInstance(edges ...[2]string) *rel.Instance {
	inst := rel.NewInstance()
	for _, e := range edges {
		inst.Add("E", rel.Const(e[0]), rel.Const(e[1]))
	}
	return inst
}

func TestExistsSimplePattern(t *testing.T) {
	inst := edgeInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	path2 := []dep.Atom{
		dep.NewAtom("E", dep.Var("x"), dep.Var("y")),
		dep.NewAtom("E", dep.Var("y"), dep.Var("z")),
	}
	if !exists(path2, inst, nil, Options{}) {
		t.Error("path of length 2 not found")
	}
	triangle := []dep.Atom{
		dep.NewAtom("E", dep.Var("x"), dep.Var("y")),
		dep.NewAtom("E", dep.Var("y"), dep.Var("z")),
		dep.NewAtom("E", dep.Var("z"), dep.Var("x")),
	}
	if exists(triangle, inst, nil, Options{}) {
		t.Error("triangle found in a path graph")
	}
}

func TestExistsWithConstants(t *testing.T) {
	inst := edgeInstance([2]string{"a", "b"})
	atom := []dep.Atom{dep.NewAtom("E", dep.Cst("a"), dep.Var("y"))}
	if !exists(atom, inst, nil, Options{}) {
		t.Error("constant match failed")
	}
	atom = []dep.Atom{dep.NewAtom("E", dep.Cst("b"), dep.Var("y"))}
	if exists(atom, inst, nil, Options{}) {
		t.Error("constant mismatch matched")
	}
}

func TestExistsWithInitialBinding(t *testing.T) {
	inst := edgeInstance([2]string{"a", "b"}, [2]string{"c", "d"})
	atom := []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))}
	if !exists(atom, inst, binding{"x": rel.Const("a")}, Options{}) {
		t.Error("bound search failed")
	}
	if exists(atom, inst, binding{"x": rel.Const("b")}, Options{}) {
		t.Error("bound search over-matched")
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	inst := edgeInstance([2]string{"a", "b"}, [2]string{"c", "c"})
	loop := []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("x"))}
	b, ok := findOne(loop, inst, nil, Options{})
	if !ok {
		t.Fatal("self-loop not found")
	}
	if b["x"] != rel.Const("c") {
		t.Errorf("bound x = %v, want c", b["x"])
	}
}

func TestForEachEnumeratesAll(t *testing.T) {
	inst := edgeInstance([2]string{"a", "b"}, [2]string{"a", "c"}, [2]string{"b", "c"})
	atom := []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))}
	count := 0
	done := forEach(atom, inst, nil, Options{}, func(binding) bool {
		count++
		return true
	})
	if !done || count != 3 {
		t.Errorf("enumerated %d bindings (done=%v), want 3", count, done)
	}
	// Early stop.
	count = 0
	done = forEach(atom, inst, nil, Options{}, func(binding) bool {
		count++
		return count < 2
	})
	if done || count != 2 {
		t.Errorf("early stop enumerated %d (done=%v)", count, done)
	}
}

func TestForEachEmptyPattern(t *testing.T) {
	inst := edgeInstance()
	calls := 0
	forEach(nil, inst, nil, Options{}, func(b binding) bool {
		calls++
		return true
	})
	if calls != 1 {
		t.Errorf("empty pattern yielded %d bindings, want 1 (empty hom)", calls)
	}
}

func TestMissingRelationNoMatch(t *testing.T) {
	inst := edgeInstance([2]string{"a", "b"})
	atom := []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))}
	if exists(atom, inst, nil, Options{}) {
		t.Error("matched against absent relation")
	}
}

// TestDirectedTrianglesInK4: the indexed search finds every directed
// triangle of the complete digraph on four vertices — 4·3·2 = 24
// bindings of (x, y, z).
func TestDirectedTrianglesInK4(t *testing.T) {
	inst := rel.NewInstance()
	vals := []string{"a", "b", "c", "d"}
	for _, x := range vals {
		for _, y := range vals {
			if x != y {
				inst.Add("E", rel.Const(x), rel.Const(y))
			}
		}
	}
	pattern := []dep.Atom{
		dep.NewAtom("E", dep.Var("x"), dep.Var("y")),
		dep.NewAtom("E", dep.Var("y"), dep.Var("z")),
		dep.NewAtom("E", dep.Var("z"), dep.Var("x")),
	}
	count := 0
	forEach(pattern, inst, nil, Options{}, func(binding) bool { count++; return true })
	if count != 24 {
		t.Errorf("found %d directed triangles in K4, want 24", count)
	}
}

func TestBindingsAreFreshCopies(t *testing.T) {
	inst := edgeInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	atom := []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))}
	var collected []binding
	forEach(atom, inst, nil, Options{}, func(b binding) bool {
		collected = append(collected, b)
		return true
	})
	if len(collected) != 2 {
		t.Fatalf("got %d bindings", len(collected))
	}
	if collected[0]["x"] == collected[1]["x"] && collected[0]["y"] == collected[1]["y"] {
		t.Error("bindings alias the same map")
	}
}

func TestMatchAgainstNullValues(t *testing.T) {
	// Nulls in the instance are plain values for pattern matching.
	inst := rel.NewInstance()
	inst.Add("E", rel.Const("a"), rel.Null(1))
	atom := []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))}
	b, ok := findOne(atom, inst, nil, Options{})
	if !ok || b["y"] != rel.Null(1) {
		t.Errorf("null not matched: %v %v", b, ok)
	}
	// A constant term never matches a null value.
	atomC := []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Cst("b"))}
	if exists(atomC, inst, nil, Options{}) {
		t.Error("constant term matched a null")
	}
}
