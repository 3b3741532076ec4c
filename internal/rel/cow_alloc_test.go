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
// the tuple slice, the dedup table, ident and the position-index maps
// — and nothing per tuple. A first-seen (position, value) pair gets a
// window into ident rather than a list of its own. The bound is
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
// LAV(1600) Person relation copies its indexes without allocating per
// tuple: the dedup table is one copy, and only the posting lists of
// values held by several tuples (the ~160 groups) are copied; the
// 1,600 person singletons are shared. About 180 allocations are
// taken; copying every list took over 1,700.
func TestFirstWriteToSharedRelationAllocs(t *testing.T) {
	const n = 1600
	i, _ := workload.LAVInstance(n, true, rand.New(rand.NewSource(1)))
	fresh := rel.Const("fresh")
	allocs := testing.AllocsPerRun(5, func() {
		c := i.Clone()
		c.Add("Person", fresh, fresh)
	})
	if allocs > n/4 {
		t.Fatalf("first write to a shared LAV(%d) Person relation takes %v allocations, want at most %d", n, allocs, n/4)
	}
}
