package hom

import (
	"sort"

	"repro/internal/rel"
)

// Block is a block of tuples per Definition 10 of the paper: either a
// maximal set of tuples whose nulls all come from one connected
// component of the graph of nulls, or the set of all null-free tuples.
type Block struct {
	// Facts are the tuples of the block.
	Facts []rel.Fact
	// Nulls are the labeled nulls occurring in the block, sorted by
	// label; empty exactly for the null-free block.
	Nulls []rel.Value
}

// Blocks decomposes an instance into its blocks of tuples
// (Definition 10). The graph of the nulls of K has the nulls of K as
// nodes and an edge between two nulls whenever they co-occur in some
// tuple; each connected component induces one block, and the null-free
// tuples (if any) form one additional block.
//
// Theorem 6 of the paper shows that for settings in C_tract, every block
// of the chased instance I_can has a constant number of nulls — which is
// what makes the per-block homomorphism checks of ExistsSolution run in
// polynomial time.
func Blocks(k *rel.Instance) []Block {
	// Union-find over null labels.
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

	// The first pass unions each fact's nulls with its first one and
	// counts the null-free facts; the second finds each fact's first
	// null again to place the fact in its component's block.
	facts := k.Facts()
	grounds := 0
	for _, f := range facts {
		first, ok := firstNull(f.Args)
		if !ok {
			grounds++
			continue
		}
		for _, v := range f.Args {
			if v.IsNull() {
				union(first, v.NullID())
			}
		}
	}
	if grounds == len(facts) {
		if len(facts) == 0 {
			return nil
		}
		return []Block{{Facts: facts}}
	}

	groups := make(map[int]*Block)
	var ground *Block
	if grounds > 0 {
		ground = &Block{Facts: make([]rel.Fact, 0, grounds)}
	}
	for _, f := range facts {
		first, ok := firstNull(f.Args)
		if !ok {
			ground.Facts = append(ground.Facts, f)
			continue
		}
		root := find(first)
		b, ok := groups[root]
		if !ok {
			b = &Block{}
			groups[root] = b
		}
		b.Facts = append(b.Facts, f)
	}

	out := make([]Block, 0, len(groups)+1)
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

// firstNull returns the label of the first null of args, if any.
func firstNull(args rel.Tuple) (int, bool) {
	for _, v := range args {
		if v.IsNull() {
			return v.NullID(), true
		}
	}
	return 0, false
}

func blockNulls(facts []rel.Fact) []rel.Value {
	set := make(map[int]bool)
	for _, f := range facts {
		for _, v := range f.Args {
			if v.IsNull() {
				set[v.NullID()] = true
			}
		}
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]rel.Value, len(ids))
	for i, id := range ids {
		out[i] = rel.Null(id)
	}
	return out
}

// MaxBlockNulls returns the maximum number of nulls in any block of k,
// or 0 if k has no blocks. It is the quantity Theorem 6 bounds by a
// constant for C_tract settings.
func MaxBlockNulls(k *rel.Instance) int {
	max := 0
	for _, b := range Blocks(k) {
		if len(b.Nulls) > max {
			max = len(b.Nulls)
		}
	}
	return max
}
