package rel_test

import (
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
