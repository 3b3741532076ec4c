package hom

import (
	"strconv"
	"strings"

	"repro/internal/rel"
)

// blockCacheMinBlocks gates the memoizing cache: with few blocks the
// signature hashing costs more than the duplicate checks it saves. A
// variable so tests can force caching on small decompositions.
var blockCacheMinBlocks = 16

// BlockSignature returns a canonical encoding of the block, invariant
// under renaming of its labeled nulls: nulls are renumbered by first
// occurrence across the block's facts. Two blocks with equal signatures
// are isomorphic up to a bijective null renaming, and therefore have a
// homomorphism into any fixed instance either both or neither — the
// property the memoizing block cache relies on. (The converse does not
// hold: isomorphic blocks whose facts are ordered differently may get
// different signatures; that only costs a cache miss, never a wrong
// verdict.)
func BlockSignature(b Block) string {
	var sb strings.Builder
	ren := make(map[int]int, len(b.Nulls))
	for _, f := range b.Facts {
		sb.WriteByte(0)
		sb.WriteString(f.Rel)
		for _, v := range f.Args {
			if v.IsNull() {
				id, ok := ren[v.NullID()]
				if !ok {
					id = len(ren)
					ren[v.NullID()] = id
				}
				sb.WriteByte(1)
				sb.WriteString(strconv.Itoa(id))
			} else {
				sb.WriteByte(2)
				sb.WriteString(v.ConstText())
			}
		}
	}
	return sb.String()
}

// CheckBlocks reports the index of the first block (in input order)
// with no homomorphism into inst that is the identity on constants, or
// -1 when every block maps. It is the per-block loop of the Figure 3
// algorithm (via Proposition 1), scanned left to right and memoized by
// BlockSignature, so blocks that are copies of each other up to null
// renaming — thousands of them in the LAV and genomic chase results —
// share a single search. The memo is scoped to this call, and so to one
// target instance.
//
// inst must not be mutated for the duration of the call (the
// freeze-after-build discipline of DESIGN.md §8).
//
// When opts.Ctx is canceled mid-call the returned index is meaningless
// (cancellation is surfaced as a rejection so the scan stops); callers
// that set Ctx must check Ctx.Err() after the call and discard the
// result when non-nil.
func CheckBlocks(blocks []Block, inst *rel.Instance, opts Options) int {
	var cache map[string]bool
	if len(blocks) >= blockCacheMinBlocks {
		cache = make(map[string]bool)
	}
	for i, b := range blocks {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return i
		}
		var verdict bool
		if cache == nil || len(b.Nulls) == 0 {
			// Null-free blocks are containment checks; memoizing them
			// would cache a scan cheaper than the signature itself.
			verdict = blockHomExists(b, inst, opts)
		} else {
			sig := BlockSignature(b)
			var ok bool
			if verdict, ok = cache[sig]; !ok {
				verdict = blockHomExists(b, inst, opts)
				cache[sig] = verdict
			}
		}
		if !verdict {
			return i
		}
	}
	return -1
}

// blockHomExists checks one block; per Proposition 1 of the paper, a
// homomorphism from k to i exists iff each block maps independently.
func blockHomExists(block Block, i *rel.Instance, opts Options) bool {
	if len(block.Nulls) == 0 {
		// A null-free block maps by the identity: a containment check.
		for _, f := range block.Facts {
			if !i.Contains(f) {
				return false
			}
		}
		return true
	}
	return block.Compile().Exists(i, make([]rel.Value, len(block.Nulls)), opts)
}
