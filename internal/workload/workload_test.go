package workload_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/workload"
)

func TestLAVSettingInCtract(t *testing.T) {
	s := workload.LAVSetting()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := s.Classify()
	if !rep.InCtract || !rep.Cond21 {
		t.Errorf("LAV setting should be in C_tract via 2.1: %s", rep.Summary())
	}
}

func TestLAVInstanceSolvability(t *testing.T) {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(1))
	for _, solvable := range []bool{true, false} {
		i, j := workload.LAVInstance(30, solvable, rng)
		got, _, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != solvable {
			t.Errorf("solvable=%v but tractable SOL=%v", solvable, got)
		}
		// Generic solver must agree (EXP-T5 in miniature).
		gen, _, _, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if gen != solvable {
			t.Errorf("solvable=%v but generic SOL=%v", solvable, gen)
		}
	}
}

func TestFullSTSettingInCtract(t *testing.T) {
	s := workload.FullSTSetting()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := s.Classify()
	if !rep.InCtract || !rep.Cond22 {
		t.Errorf("full-st setting should be in C_tract via 2.2: %s", rep.Summary())
	}
	for _, d := range s.ST {
		if !d.IsFull() {
			t.Errorf("st tgd %s not full", d.Label)
		}
	}
}

func TestFullSTInstanceSolvability(t *testing.T) {
	s := workload.FullSTSetting()
	rng := rand.New(rand.NewSource(2))
	for _, solvable := range []bool{true, false} {
		i, j := workload.FullSTInstance(20, solvable, rng)
		got, _, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != solvable {
			t.Errorf("solvable=%v but tractable SOL=%v", solvable, got)
		}
		gen, _, _, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if gen != solvable {
			t.Errorf("solvable=%v but generic SOL=%v", solvable, gen)
		}
	}
}

func TestChainChaseStepsExactlyDepthTimesN(t *testing.T) {
	for _, tc := range []struct{ depth, n int }{{1, 5}, {3, 10}, {5, 4}} {
		deps := workload.ChainDeps(tc.depth)
		res, err := chase.Run(workload.ChainInstance(tc.n), deps, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != tc.depth*tc.n {
			t.Errorf("depth=%d n=%d: steps=%d, want %d", tc.depth, tc.n, res.Steps, tc.depth*tc.n)
		}
	}
}

func TestCyclicDepsDiverge(t *testing.T) {
	_, err := chase.Run(workload.CyclicInstance(), workload.CyclicDeps(), chase.Options{MaxSteps: 500})
	if !errors.Is(err, chase.ErrBudgetExhausted) {
		t.Errorf("cyclic chase should exhaust budget, got %v", err)
	}
}

func TestGenomicScenario(t *testing.T) {
	s := workload.GenomicSetting()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Classify().InCtract {
		t.Errorf("genomic setting should be in C_tract: %s", s.Classify().Summary())
	}
	rng := rand.New(rand.NewSource(3))

	i, j := workload.GenomicInstance(50, true, rng)
	got, _, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("clean genomic instance should have a solution")
	}
	sol, _, err := core.FindSolutionTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil || !s.IsSolution(i, j, sol) {
		t.Error("constructed genomic solution invalid")
	}
	// The solution keeps the university's local annotations.
	if !sol.ContainsAll(j) {
		t.Error("solution dropped pre-existing target facts")
	}

	i2, j2 := workload.GenomicInstance(50, false, rng)
	got, _, err = core.ExistsSolutionTractable(s, i2, j2, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("dirty genomic instance should have no solution (unvouched annotation)")
	}
}

func TestKeyedLAVSetting(t *testing.T) {
	s := workload.KeyedLAVSetting()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Classify().InCtract {
		t.Fatal("keyed setting must leave C_tract (non-empty Σt)")
	}
	e, ok := s.T[0].(dep.EGD)
	if !ok || !e.KeyShaped() {
		t.Fatalf("target constraint %v is not a key-shaped egd", s.T[0])
	}
}

// TestKeyedLAVInstanceMerges: the generator really is egd-heavy — the
// chase of Union(i, j) performs one merge per person and reaches a
// clean fixpoint, byte for byte the reference chase's (oracle.Chase).
func TestKeyedLAVInstanceMerges(t *testing.T) {
	const n = 60
	i, j := workload.KeyedLAVInstance(n)
	start := rel.Union(i, j)
	deps := workload.KeyedLAVDeps()
	ref, err := oracle.Chase(start, deps, nil, false, chase.DefaultMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chase.Run(start, deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("keyed chase failed on %s", res.FailedOn)
	}
	if res.Merges != n {
		t.Fatalf("chase applied %d merges, want one per person (%d)", res.Merges, n)
	}
	if res.UnionFind == nil || res.UnionFind.Merges() != n {
		t.Fatalf("union-find state not retained: %v", res.UnionFind)
	}
	if ref.Instance.String() != res.Instance.String() || ref.Steps != res.Steps || ref.Merges != res.Merges || ref.Failed {
		t.Fatal("engine diverged from the reference chase on the keyed workload")
	}
}
