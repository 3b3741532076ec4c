package rel_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// LAV Person relation copies nothing per tuple or per posting list:
// the copy takes the relation's tuples and dedup table as its base and
// shares its position indexes (see postings), keeping only what it
// writes. It takes the same 10 allocations at LAV(200) as at
// LAV(1600), and the same bytes within 10% (2,224 B) at LAV(200),
// LAV(1600) and LAV(6400); copying the tuple slice and the table took
// 9, 67 and 247 KB.
func TestFirstWriteToSharedRelationAllocs(t *testing.T) {
	const runs = 20
	measure := func(n int) (allocs, bytes float64) {
		i, _ := workload.LAVInstance(n, true, rand.New(rand.NewSource(1)))
		fresh := rel.Const("fresh")
		write := func() {
			c := i.Clone()
			c.Add("Person", fresh, fresh)
		}
		allocs = testing.AllocsPerRun(5, write)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < runs; k++ {
			write()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, small := measure(200)
	largeAllocs, large := measure(1600)
	if smallAllocs != largeAllocs || largeAllocs > 16 {
		t.Fatalf("first write to a shared LAV Person relation takes %v allocations at n=200 and %v at n=1600, want equal and at most 16", smallAllocs, largeAllocs)
	}
	_, huge := measure(6400)
	for _, m := range []struct {
		n     int
		bytes float64
	}{{1600, large}, {6400, huge}} {
		if m.bytes > 1.1*small || m.bytes < small/1.1 {
			t.Fatalf("first write to a shared LAV Person relation takes %.0f B at n=%d and %.0f B at n=200, want equal within 10%%", m.bytes, m.n, small)
		}
	}
}
