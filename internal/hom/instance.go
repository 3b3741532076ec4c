package hom

import (
	"sort"

	"repro/internal/rel"
)

// Compile compiles the block's facts into a conjunction with one slot
// per distinct null, numbered as in b.Nulls (slot k holds b.Nulls[k]);
// constants stay constants. A homomorphism from the conjunction into an
// instance I is exactly a homomorphism from the block into I that is
// the identity on constants, as used throughout the paper. No slot is
// pre-bound, so a slot vector for it has len(b.Nulls) values.
func (b Block) Compile() *Conj {
	n := 0
	for _, f := range b.Facts {
		n += len(f.Args)
	}
	args := make([]Arg, 0, n)
	atoms := make([]Atom, len(b.Facts))
	for i, f := range b.Facts {
		start := len(args)
		for _, v := range f.Args {
			if v.IsNull() {
				args = append(args, Arg{Slot: b.Slot(v)})
			} else {
				args = append(args, Arg{Slot: -1, Val: v})
			}
		}
		atoms[i] = Atom{Rel: f.Rel, Args: args[start:len(args):len(args)]}
	}
	return NewConj(atoms, 0)
}

// Slot returns the slot of the null v in the block's compiled
// conjunction: its index in b.Nulls, or -1 when v is not a null of the
// block.
func (b Block) Slot(v rel.Value) int {
	k := sort.Search(len(b.Nulls), func(k int) bool { return b.Nulls[k].NullID() >= v.NullID() })
	if k < len(b.Nulls) && b.Nulls[k] == v {
		return k
	}
	return -1
}

// InstanceHomExists reports whether there is a homomorphism from k to i
// that is the identity on constants (nulls of k may map to any value
// of i), checking block by block (see CheckBlocks).
func InstanceHomExists(k, i *rel.Instance, opts Options) bool {
	return CheckBlocks(Blocks(k), i, opts) < 0
}
