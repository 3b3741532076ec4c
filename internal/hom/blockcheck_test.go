package hom

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dep"
	"repro/internal/rel"
)

// forceBlockCache lowers the memo threshold so CheckBlocks memoizes on
// the small inputs tests use, restoring it on cleanup.
func forceBlockCache(t *testing.T) {
	t.Helper()
	old := blockCacheMinBlocks
	blockCacheMinBlocks = 1
	t.Cleanup(func() { blockCacheMinBlocks = old })
}

func randomJoinInstance(rng *rand.Rand, n int) *rel.Instance {
	inst := rel.NewInstance()
	for k := 0; k < n; k++ {
		inst.Add("R", rel.Const(fmt.Sprintf("a%d", rng.Intn(n/2+1))), rel.Const(fmt.Sprintf("b%d", rng.Intn(n/2+1))))
	}
	for k := 0; k < n; k++ {
		inst.Add("S", rel.Const(fmt.Sprintf("b%d", rng.Intn(n/2+1))), rel.Const(fmt.Sprintf("c%d", rng.Intn(n/2+1))))
	}
	return inst
}

func bindingsEqual(a, b Binding) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestEnumerateMatchesForEachOrder: EnumerateDeltaSpec with a zero spec
// streams exactly the ForEach enumeration — same bindings, same order.
func TestEnumerateMatchesForEachOrder(t *testing.T) {
	atoms := []dep.Atom{
		dep.NewAtom("R", dep.Var("x"), dep.Var("y")),
		dep.NewAtom("S", dep.Var("y"), dep.Var("z")),
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		inst := randomJoinInstance(rng, 10+rng.Intn(40))
		inst.Freeze()
		var want []Binding
		ForEach(atoms, inst, nil, Options{}, func(b Binding) bool {
			want = append(want, b)
			return true
		})
		got := collectDelta(atoms, inst, nil, DeltaSpec{}, Options{})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d bindings, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if !bindingsEqual(got[i], want[i]) {
				t.Fatalf("trial %d: binding %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestEnumerateWithInitBinding: init bindings constrain EnumerateDeltaSpec
// exactly as they constrain ForEach.
func TestEnumerateWithInitBinding(t *testing.T) {
	atoms := []dep.Atom{
		dep.NewAtom("R", dep.Var("x"), dep.Var("y")),
		dep.NewAtom("S", dep.Var("y"), dep.Var("z")),
	}
	inst := randomJoinInstance(rand.New(rand.NewSource(33)), 40)
	init := Binding{"x": rel.Const("a1")}
	var want []Binding
	ForEach(atoms, inst, init, Options{}, func(b Binding) bool {
		want = append(want, b)
		return true
	})
	got := collectDelta(atoms, inst, init, DeltaSpec{}, Options{})
	if len(got) != len(want) {
		t.Fatalf("got %d bindings, want %d", len(got), len(want))
	}
	for i := range got {
		if !bindingsEqual(got[i], want[i]) {
			t.Fatalf("binding %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBlockSignatureRenamingInvariance: renaming the nulls of a block
// bijectively leaves the signature unchanged, and structurally
// different blocks get different signatures.
func TestBlockSignatureRenamingInvariance(t *testing.T) {
	mk := func(ids ...int) Block {
		inst := rel.NewInstance()
		inst.Add("Rec", rel.Const("p"), rel.Const("g"), rel.Null(ids[0]))
		inst.Add("Rec", rel.Const("p"), rel.Null(ids[1]), rel.Null(ids[0]))
		blocks := Blocks(inst)
		if len(blocks) != 1 {
			t.Fatalf("expected one block, got %d", len(blocks))
		}
		return blocks[0]
	}
	a := mk(1, 2)
	b := mk(70, 90)
	if BlockSignature(a) != BlockSignature(b) {
		t.Fatalf("signatures differ under null renaming:\n%q\n%q", BlockSignature(a), BlockSignature(b))
	}
	other := rel.NewInstance()
	other.Add("Rec", rel.Const("q"), rel.Const("g"), rel.Null(1))
	other.Add("Rec", rel.Const("q"), rel.Null(2), rel.Null(1))
	ob := Blocks(other)[0]
	if BlockSignature(a) == BlockSignature(ob) {
		t.Fatal("different blocks share a signature")
	}
	// Constant/null confusion must not collide: Rec(n1, "0") vs Rec("0", n1)
	// style mixes differ.
	x := rel.NewInstance()
	x.Add("T", rel.Null(1), rel.Const("0"))
	y := rel.NewInstance()
	y.Add("T", rel.Const("0"), rel.Null(1))
	if BlockSignature(Blocks(x)[0]) == BlockSignature(Blocks(y)[0]) {
		t.Fatal("signature confuses null and constant positions")
	}
}

// TestCheckBlocksMatchesSerial: on random instances, CheckBlocks —
// with and without the signature memo — returns exactly the first
// failing index of a scan that runs one Exists search per block.
func TestCheckBlocksMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	type trialCase struct {
		k, i *rel.Instance
		want int
	}
	var cases []trialCase
	for trial := 0; trial < 40; trial++ {
		// k: many near-isomorphic single-null blocks plus ground facts;
		// i: a target that randomly misses some values, so some blocks
		// fail to map.
		k := rel.NewInstance()
		i := rel.NewInstance()
		nulls := 2 + rng.Intn(10)
		for nid := 1; nid <= nulls; nid++ {
			p := rel.Const(fmt.Sprintf("p%d", rng.Intn(6)))
			k.Add("Rec", p, rel.Null(nid))
		}
		for g := 0; g < rng.Intn(5); g++ {
			k.Add("G", rel.Const(fmt.Sprintf("g%d", g)))
			if rng.Intn(3) > 0 {
				i.Add("G", rel.Const(fmt.Sprintf("g%d", g)))
			}
		}
		for p := 0; p < 6; p++ {
			if rng.Intn(3) > 0 {
				i.Add("Rec", rel.Const(fmt.Sprintf("p%d", p)), rel.Const("v"))
			}
		}
		i.Freeze()
		want := -1
		for idx, b := range Blocks(k) {
			if !b.Compile().Exists(i, make([]rel.Value, len(b.Nulls)), Options{}) {
				want = idx
				break
			}
		}
		cases = append(cases, trialCase{k, i, want})
	}
	check := func(memo string) {
		for trial, c := range cases {
			blocks := Blocks(c.k)
			if got := CheckBlocks(blocks, c.i, Options{}); got != c.want {
				t.Fatalf("%s, trial %d: CheckBlocks=%d, Exists scan=%d (%d blocks)", memo, trial, got, c.want, len(blocks))
			}
			if got := InstanceHomExists(c.k, c.i, Options{}); got != (c.want < 0) {
				t.Fatalf("%s, trial %d: InstanceHomExists=%v, want %v", memo, trial, got, c.want < 0)
			}
		}
	}
	check("default memo threshold")
	forceBlockCache(t)
	check("memo forced")
}

// TestChunkedContainmentMatchesSerial: a large null-free block (the
// shape of I_can for families with full Σts heads, where it is one
// giant ground block) is a containment check that agrees with an Exists
// search, including on the failing side.
func TestChunkedContainmentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		k := rel.NewInstance()
		i := rel.NewInstance()
		n := 300 + rng.Intn(200)
		missing := rng.Intn(n + n/4) // index of a fact possibly withheld from i
		for f := 0; f < n; f++ {
			v := rel.Const(fmt.Sprintf("v%d", f))
			k.Add("F", v)
			if f != missing {
				i.Add("F", v)
			}
		}
		i.Freeze()
		blocks := Blocks(k)
		if len(blocks) != 1 || len(blocks[0].Nulls) != 0 {
			t.Fatalf("trial %d: expected one null-free block", trial)
		}
		want := missing >= n // contained iff nothing was withheld
		if got := blocks[0].Compile().Exists(i, nil, Options{}); got != want {
			t.Fatalf("trial %d: Exists=%v, want %v", trial, got, want)
		}
		if got := blockHomExists(blocks[0], i, Options{}); got != want {
			t.Fatalf("trial %d: blockHomExists=%v, want %v", trial, got, want)
		}
		if got := CheckBlocks(blocks, i, Options{}) < 0; got != want {
			t.Fatalf("trial %d: CheckBlocks maps=%v, want %v", trial, got, want)
		}
	}
}
