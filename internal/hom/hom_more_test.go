package hom

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dep"
	"repro/internal/rel"
)

// TestFindOneRespectsInit: FindOne extends the initial binding rather
// than rebinding.
func TestFindOneRespectsInit(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("E", rel.Const("a"), rel.Const("b"))
	inst.Add("E", rel.Const("c"), rel.Const("d"))
	atoms := []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))}
	b, ok := FindOne(atoms, inst, Binding{"x": rel.Const("c")}, Options{})
	if !ok || b["y"] != rel.Const("d") {
		t.Errorf("binding = %v ok=%v", b, ok)
	}
	if b["x"] != rel.Const("c") {
		t.Error("initial binding lost")
	}
}

// TestCrossProductPattern: disconnected atoms enumerate the full cross
// product.
func TestCrossProductPattern(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("a1"))
	inst.Add("A", rel.Const("a2"))
	inst.Add("B", rel.Const("b1"))
	inst.Add("B", rel.Const("b2"))
	inst.Add("B", rel.Const("b3"))
	atoms := []dep.Atom{dep.NewAtom("A", dep.Var("x")), dep.NewAtom("B", dep.Var("y"))}
	count := 0
	ForEach(atoms, inst, nil, Options{}, func(Binding) bool { count++; return true })
	if count != 6 {
		t.Errorf("cross product = %d bindings, want 6", count)
	}
}

// TestSharedVariableAcrossAtoms: a variable shared between atoms of
// different relations constrains the join.
func TestSharedVariableAcrossAtoms(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("A", rel.Const("k"))
	inst.Add("B", rel.Const("k"), rel.Const("v"))
	inst.Add("B", rel.Const("m"), rel.Const("w"))
	atoms := []dep.Atom{dep.NewAtom("A", dep.Var("x")), dep.NewAtom("B", dep.Var("x"), dep.Var("y"))}
	count := 0
	ForEach(atoms, inst, nil, Options{}, func(b Binding) bool {
		if b["y"] != rel.Const("v") {
			t.Errorf("wrong join result: %v", b)
		}
		count++
		return true
	})
	if count != 1 {
		t.Errorf("join produced %d results, want 1", count)
	}
}

// TestOrderAtomsCorrectness: the join-order heuristic never changes the
// result set, only the exploration order. Compare against a permutation
// of the same pattern on random instances.
func TestOrderAtomsCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pattern := []dep.Atom{
		dep.NewAtom("E", dep.Var("x"), dep.Var("y")),
		dep.NewAtom("E", dep.Var("y"), dep.Var("z")),
		dep.NewAtom("F", dep.Var("z"), dep.Var("x")),
	}
	permuted := []dep.Atom{pattern[2], pattern[0], pattern[1]}
	for trial := 0; trial < 30; trial++ {
		inst := rel.NewInstance()
		for f := 0; f < 10; f++ {
			inst.Add("E", rel.Const(fmt.Sprintf("v%d", rng.Intn(4))), rel.Const(fmt.Sprintf("v%d", rng.Intn(4))))
			inst.Add("F", rel.Const(fmt.Sprintf("v%d", rng.Intn(4))), rel.Const(fmt.Sprintf("v%d", rng.Intn(4))))
		}
		count1, count2 := 0, 0
		ForEach(pattern, inst, nil, Options{}, func(Binding) bool { count1++; return true })
		ForEach(permuted, inst, nil, Options{}, func(Binding) bool { count2++; return true })
		if count1 != count2 {
			t.Fatalf("trial %d: atom order changed result count: %d vs %d", trial, count1, count2)
		}
	}
}

// TestInstanceAtomsRoundTrip: a whole instance compiled as one block
// maps into the same instance (the identity homomorphism), and the
// homomorphism found sends each null to itself or to a value that
// keeps every fact.
func TestInstanceAtomsRoundTrip(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("E", rel.Const("a"), rel.Null(1))
	inst.Add("E", rel.Null(1), rel.Null(2))
	b := wholeBlock(inst)
	if len(b.Facts) != 2 || len(b.Nulls) != 2 {
		t.Fatalf("whole block = %d facts, %d nulls", len(b.Facts), len(b.Nulls))
	}
	vals := make([]rel.Value, len(b.Nulls))
	if !b.Compile().Exists(inst, vals, Options{}) {
		t.Fatal("identity homomorphism not found")
	}
	for s, n := range b.Nulls {
		if vals[s] != n {
			t.Errorf("null %v mapped to %v, want itself (the only homomorphism)", n, vals[s])
		}
	}
}

// TestNullVarStability: distinct nulls of a block get distinct slots,
// numbered as in Block.Nulls, and a compiled fact binds its null's
// slot; a value that is no null of the block has no slot.
func TestNullVarStability(t *testing.T) {
	b := Block{
		Facts: []rel.Fact{{Rel: "R", Args: rel.Tuple{rel.Null(7), rel.Const("c"), rel.Null(2), rel.Null(7)}}},
		Nulls: []rel.Value{rel.Null(2), rel.Null(7)},
	}
	if b.Slot(rel.Null(2)) != 0 || b.Slot(rel.Null(7)) != 1 {
		t.Errorf("slots = %d, %d; want 0, 1", b.Slot(rel.Null(2)), b.Slot(rel.Null(7)))
	}
	if b.Slot(rel.Null(3)) != -1 {
		t.Errorf("foreign null got slot %d", b.Slot(rel.Null(3)))
	}
	c := b.Compile()
	if c.Slots() != 2 {
		t.Fatalf("compiled block has %d slots, want 2", c.Slots())
	}
	args := c.atoms[0].args
	if args[0].op != opBind || args[0].slot != 1 || args[1].op != opConst || args[2].op != opBind || args[2].slot != 0 || args[3].op != opSame || args[3].slot != 1 {
		t.Errorf("compiled args = %+v", args)
	}
}

// TestBlockHomExistsGroundBlock: the null-free block check is a plain
// containment test.
func TestBlockHomExistsGroundBlock(t *testing.T) {
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Const("b"))
	blocks := Blocks(k)
	if len(blocks) != 1 {
		t.Fatal("expected one ground block")
	}
	target := rel.NewInstance()
	target.Add("E", rel.Const("a"), rel.Const("b"))
	if !blockHomExists(blocks[0], target, Options{}) {
		t.Error("containment check failed")
	}
	if blockHomExists(blocks[0], rel.NewInstance(), Options{}) {
		t.Error("empty target accepted")
	}
}

// TestSelectivityWithBoundVariable: the candidate scan uses whichever
// position is most selective; correctness is what we verify (three
// matches through a skewed index).
func TestSelectivityWithBoundVariable(t *testing.T) {
	inst := rel.NewInstance()
	for k := 0; k < 50; k++ {
		inst.Add("E", rel.Const("hub"), rel.Const(fmt.Sprintf("v%d", k)))
	}
	inst.Add("E", rel.Const("x1"), rel.Const("rare"))
	inst.Add("E", rel.Const("x2"), rel.Const("rare"))
	inst.Add("E", rel.Const("x3"), rel.Const("rare"))
	atoms := []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Cst("rare"))}
	count := 0
	ForEach(atoms, inst, nil, Options{}, func(Binding) bool { count++; return true })
	if count != 3 {
		t.Errorf("matches = %d, want 3", count)
	}
}
