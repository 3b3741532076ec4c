package rel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rel"
	"repro/internal/workload"
)

// TestCloneAllocsIndependentOfSize: Clone shares relations instead of
// copying them, so cloning LAV(1600) allocates exactly what cloning
// LAV(200) does.
func TestCloneAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		i, j := workload.LAVInstance(n, true, rand.New(rand.NewSource(1)))
		u := rel.Union(i, j)
		return testing.AllocsPerRun(20, func() { u.Clone() })
	}
	if small, large := allocs(200), allocs(1600); small != large {
		t.Fatalf("Clone of LAV(200) takes %v allocations, LAV(1600) %v", small, large)
	}
}

// TestInsertAllocsLogarithmic: inserting n fresh tuples whose values
// are new at every position allocates only when a container grows —
// the tuple slice, the dedup table, the shared identity array and the
// position-index maps — and nothing per tuple. A first-seen (position,
// value) pair gets a window into the identity array rather than a list
// of its own. The bound is
// 16·log2(n) allocations for n = 4096 (about 140 are taken; one list
// per pair would be over 8,000). Go maps also split a table every
// ~1,000 entries, so the count grows by about n/1024 besides.
func TestInsertAllocsLogarithmic(t *testing.T) {
	const n = 4096
	tuples := make([]rel.Tuple, n)
	for k := range tuples {
		tuples[k] = rel.Tuple{rel.Const(fmt.Sprintf("c%d", k)), rel.Null(k)}
	}
	allocs := testing.AllocsPerRun(3, func() {
		inst := rel.NewInstance()
		for _, tup := range tuples {
			inst.AddOwnedTuple("R", tup)
		}
	})
	if limit := 16 * math.Log2(n); allocs > limit {
		t.Fatalf("inserting %d fresh tuples takes %v allocations, want at most %.0f", n, allocs, limit)
	}
}

// TestFirstWriteToSharedRelationAllocs: the first write to a shared
// LAV Person relation copies the tuple slice and the dedup table and
// nothing per tuple or per posting list: the copy shares the
// relation's position indexes and keeps only the entries it changes
// (see postings). It takes the same 11 allocations at LAV(200) as at
// LAV(1600); copying every multi-element list took 36 and 178.
func TestFirstWriteToSharedRelationAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		i, _ := workload.LAVInstance(n, true, rand.New(rand.NewSource(1)))
		fresh := rel.Const("fresh")
		return testing.AllocsPerRun(5, func() {
			c := i.Clone()
			c.Add("Person", fresh, fresh)
		})
	}
	small, large := allocs(200), allocs(1600)
	if small != large || large > 16 {
		t.Fatalf("first write to a shared LAV Person relation takes %v allocations at n=200 and %v at n=1600, want equal and at most 16", small, large)
	}
}
