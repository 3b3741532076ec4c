package chase_test

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/rel"
	"repro/internal/workload"
)

// TestKeyedChaseAllocsGrowth pins the allocation shape of the egd
// detection pass: chasing the keyed LAV setting, whose key egd merges
// once per person, may allocate at most 6× as much at n = 400 as at
// n = 100. A pass that copies every body binding it scans grows about
// 12.6× (13,844 → 174,644); scanning the delta without copies grows
// about 3.8× (3,132 → 11,790).
func TestKeyedChaseAllocsGrowth(t *testing.T) {
	deps := workload.KeyedLAVDeps()
	allocs := func(n int) float64 {
		start := rel.Union(workload.KeyedLAVInstance(n))
		start.Freeze()
		return testing.AllocsPerRun(3, func() {
			if res, err := chase.Run(start, deps, chase.Options{}); err != nil || res.Failed {
				t.Fatalf("keyed chase at n=%d: failed %v, err %v", n, res.Failed, err)
			}
		})
	}
	small, large := allocs(100), allocs(400)
	if large > 6*small {
		t.Fatalf("keyed chase allocates %.0f at n=100 and %.0f at n=400: %.1f×, want at most 6×", small, large, large/small)
	}
}
