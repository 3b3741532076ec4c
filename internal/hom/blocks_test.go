package hom

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

func TestBlocksGroundOnly(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("E", rel.Const("a"), rel.Const("b"))
	inst.Add("E", rel.Const("b"), rel.Const("c"))
	blocks := Blocks(inst)
	if len(blocks) != 1 {
		t.Fatalf("got %d blocks, want 1", len(blocks))
	}
	if len(blocks[0].Nulls) != 0 || len(blocks[0].Facts) != 2 {
		t.Errorf("ground block wrong: %+v", blocks[0])
	}
}

func TestBlocksConnectedComponents(t *testing.T) {
	inst := rel.NewInstance()
	// Component {1,2} via co-occurrence; component {3}; one ground fact.
	inst.Add("E", rel.Null(1), rel.Null(2))
	inst.Add("E", rel.Null(2), rel.Const("a"))
	inst.Add("E", rel.Null(3), rel.Const("b"))
	inst.Add("E", rel.Const("a"), rel.Const("b"))
	blocks := Blocks(inst)
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3:\n%v", len(blocks), blocks)
	}
	// First block: nulls {1,2} with two facts.
	if len(blocks[0].Nulls) != 2 || len(blocks[0].Facts) != 2 {
		t.Errorf("block 0 wrong: %+v", blocks[0])
	}
	// Second block: null {3}, one fact.
	if len(blocks[1].Nulls) != 1 || blocks[1].Nulls[0] != rel.Null(3) {
		t.Errorf("block 1 wrong: %+v", blocks[1])
	}
	// Ground block last.
	last := blocks[len(blocks)-1]
	if len(last.Nulls) != 0 || len(last.Facts) != 1 {
		t.Errorf("ground block wrong: %+v", last)
	}
}

func TestBlocksTransitiveComponent(t *testing.T) {
	inst := rel.NewInstance()
	// 1-2, 2-3 co-occur: all three nulls in one component.
	inst.Add("E", rel.Null(1), rel.Null(2))
	inst.Add("E", rel.Null(2), rel.Null(3))
	blocks := Blocks(inst)
	if len(blocks) != 1 || len(blocks[0].Nulls) != 3 {
		t.Fatalf("expected one block with 3 nulls, got %+v", blocks)
	}
	if MaxBlockNulls(inst) != 3 {
		t.Errorf("MaxBlockNulls = %d", MaxBlockNulls(inst))
	}
}

func TestMaxBlockNullsEmpty(t *testing.T) {
	if MaxBlockNulls(rel.NewInstance()) != 0 {
		t.Error("empty instance should have 0 max block nulls")
	}
}

func TestInstanceHomExistsIdentity(t *testing.T) {
	inst := rel.NewInstance()
	inst.Add("E", rel.Const("a"), rel.Const("b"))
	if !InstanceHomExists(inst, inst, Options{}) {
		t.Error("identity homomorphism not found")
	}
}

func TestInstanceHomNullsMapAnywhere(t *testing.T) {
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Null(1))
	i := rel.NewInstance()
	i.Add("E", rel.Const("a"), rel.Const("b"))
	if !InstanceHomExists(k, i, Options{}) {
		t.Error("null should map to b")
	}
}

func TestInstanceHomConstantsFixed(t *testing.T) {
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Const("b"))
	i := rel.NewInstance()
	i.Add("E", rel.Const("c"), rel.Const("d"))
	if InstanceHomExists(k, i, Options{}) {
		t.Error("homomorphism must be identity on constants")
	}
}

func TestInstanceHomJoinConstraint(t *testing.T) {
	// k: E(a,N1), E(N1,b) requires a value x with E(a,x) and E(x,b) in i.
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Null(1))
	k.Add("E", rel.Null(1), rel.Const("b"))
	i := rel.NewInstance()
	i.Add("E", rel.Const("a"), rel.Const("m"))
	i.Add("E", rel.Const("m"), rel.Const("b"))
	if !InstanceHomExists(k, i, Options{}) {
		t.Error("join through null not found")
	}
	i2 := rel.NewInstance()
	i2.Add("E", rel.Const("a"), rel.Const("m"))
	i2.Add("E", rel.Const("q"), rel.Const("b"))
	if InstanceHomExists(k, i2, Options{}) {
		t.Error("broken join matched")
	}
}

func TestInstanceHomBlocksIndependent(t *testing.T) {
	// Two independent blocks can map to different witnesses even if no
	// single joint assignment exists... actually blocks never share
	// nulls, so independence is sound (Proposition 1). Check a case with
	// two blocks where each maps.
	k := rel.NewInstance()
	k.Add("E", rel.Const("a"), rel.Null(1))
	k.Add("E", rel.Const("b"), rel.Null(2))
	i := rel.NewInstance()
	i.Add("E", rel.Const("a"), rel.Const("x"))
	i.Add("E", rel.Const("b"), rel.Const("y"))
	if !InstanceHomExists(k, i, Options{}) {
		t.Error("independent blocks should map")
	}
}

// Property: Blocks partitions the facts of the instance.
func TestBlocksPartitionProperty(t *testing.T) {
	f := func(spec []struct{ A, B uint8 }) bool {
		inst := rel.NewInstance()
		for _, s := range spec {
			var va, vb rel.Value
			if s.A%2 == 0 {
				va = rel.Const(string(rune('a' + s.A%5)))
			} else {
				va = rel.Null(int(s.A % 7))
			}
			if s.B%2 == 0 {
				vb = rel.Const(string(rune('a' + s.B%5)))
			} else {
				vb = rel.Null(int(s.B % 7))
			}
			inst.Add("R", va, vb)
		}
		total := 0
		seen := make(map[string]bool)
		for _, b := range Blocks(inst) {
			for _, f := range b.Facts {
				total++
				if seen[f.String()] {
					return false // fact in two blocks
				}
				seen[f.String()] = true
			}
		}
		return total == inst.NumFacts()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: nulls never cross blocks.
func TestBlocksNullDisjointnessProperty(t *testing.T) {
	f := func(spec []struct{ A, B uint8 }) bool {
		inst := rel.NewInstance()
		for _, s := range spec {
			inst.Add("R", rel.Null(int(s.A%10)), rel.Null(int(s.B%10)))
		}
		seen := make(map[rel.Value]bool)
		for _, b := range Blocks(inst) {
			for _, n := range b.Nulls {
				if seen[n] {
					return false
				}
				seen[n] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: blockwise homomorphism agrees with whole-instance
// homomorphism search (Proposition 1).
func TestProposition1Property(t *testing.T) {
	f := func(kSpec, iSpec []struct{ A, B uint8 }) bool {
		k := rel.NewInstance()
		for _, s := range kSpec {
			var va, vb rel.Value
			if s.A%3 == 0 {
				va = rel.Null(int(s.A%4) + 1)
			} else {
				va = rel.Const(string(rune('a' + s.A%3)))
			}
			if s.B%3 == 0 {
				vb = rel.Null(int(s.B%4) + 1)
			} else {
				vb = rel.Const(string(rune('a' + s.B%3)))
			}
			k.Add("R", va, vb)
		}
		i := rel.NewInstance()
		for _, s := range iSpec {
			i.Add("R", rel.Const(string(rune('a'+s.A%3))), rel.Const(string(rune('a'+s.B%3))))
		}
		blockwise := InstanceHomExists(k, i, Options{})
		wk := wholeBlock(k)
		whole := wk.Compile().Exists(i, make([]rel.Value, len(wk.Nulls)), Options{})
		if k.NumFacts() == 0 {
			// Empty k: both must be true.
			return blockwise && whole
		}
		return blockwise == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// wholeBlock is all of k as one block: every fact and every null, the
// conjunction of a whole-instance homomorphism search.
func wholeBlock(k *rel.Instance) Block {
	facts := k.Facts()
	return Block{Facts: facts, Nulls: blockNulls(facts)}
}

// ReferenceBlocks is Blocks as first written, with a set of nulls kept
// per fact, the reference the lean Blocks is compared against.
func ReferenceBlocks(k *rel.Instance) []Block {
	parent := make(map[int]int)
	var find func(int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	facts := k.Facts()
	factNulls := make([][]int, len(facts))
	for i, f := range facts {
		var nulls []int
		seen := make(map[int]bool)
		for _, v := range f.Args {
			if v.IsNull() && !seen[v.NullID()] {
				seen[v.NullID()] = true
				nulls = append(nulls, v.NullID())
			}
		}
		factNulls[i] = nulls
		for j := 1; j < len(nulls); j++ {
			union(nulls[0], nulls[j])
		}
	}

	groups := make(map[int]*Block)
	var ground *Block
	for i, f := range facts {
		if len(factNulls[i]) == 0 {
			if ground == nil {
				ground = &Block{}
			}
			ground.Facts = append(ground.Facts, f)
			continue
		}
		root := find(factNulls[i][0])
		b, ok := groups[root]
		if !ok {
			b = &Block{}
			groups[root] = b
		}
		b.Facts = append(b.Facts, f)
	}

	var out []Block
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		b := groups[r]
		b.Nulls = blockNulls(b.Facts)
		out = append(out, *b)
	}
	if ground != nil {
		out = append(out, *ground)
	}
	return out
}

// TestBlocksMatchReference compares Blocks with ReferenceBlocks on
// random instances whose facts carry shared, repeated and absent
// nulls: the blocks, their order and the fact order inside each block
// must agree.
func TestBlocksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func(nulls int) rel.Value {
		if rng.Intn(2) == 0 {
			return rel.Null(1 + rng.Intn(nulls))
		}
		return rel.Const(fmt.Sprintf("c%d", rng.Intn(3)))
	}
	for trial := 0; trial < 500; trial++ {
		inst := rel.NewInstance()
		nulls := 1 + rng.Intn(12)
		for n := rng.Intn(30); n > 0; n-- {
			switch rng.Intn(4) {
			case 0: // null-free
				inst.Add("G", rel.Const(fmt.Sprintf("c%d", rng.Intn(5))), rel.Const("d"))
			case 1: // one null, repeated
				x := rel.Null(1 + rng.Intn(nulls))
				inst.Add("R", x, value(nulls), x)
			default:
				inst.Add("R", value(nulls), value(nulls), value(nulls))
			}
		}
		if got, want := Blocks(inst), ReferenceBlocks(inst); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Blocks\n%v\nreference\n%v", trial, got, want)
		}
	}
}
