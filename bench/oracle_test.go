package main

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rel"
	gen "repro/internal/workload"
	"repro/pde"
)

// TestFullSTGeneratorSometimesSolvable pins why the oracle never trusts
// the generators' solvable flag: FullSTInstance(n, false, ·) withholds
// the P2 fact of the last length-2 path, but when another path joins
// the same endpoints that fact is re-added and the instance is
// solvable after all.
func TestFullSTGeneratorSometimesSolvable(t *testing.T) {
	var solvable []int64
	for s := int64(1); s <= 200; s++ {
		i, _ := gen.FullSTInstance(200, false, rand.New(rand.NewSource(s)))
		if newFullTruth(i).solvable {
			solvable = append(solvable, s)
		}
	}
	if len(solvable) != 6 {
		t.Errorf("%d of seeds 1..200 yield a solvable 'unsolvable' instance, want 6: %v", len(solvable), solvable)
	}
	for _, s := range []int64{63, 85, 161} {
		if !slices.Contains(solvable, s) {
			t.Errorf("seed %d: want a solvable 'unsolvable' instance, got %v", s, solvable)
		}
	}
}

// TestOracleAgreesWithSolver checks the ground truth against the
// library's own verdicts and certain answers on small instances.
func TestOracleAgreesWithSolver(t *testing.T) {
	lav, full := gen.LAVSetting(), gen.FullSTSetting()
	point, err := pde.ParseQueries(pointQuery("p3"))
	if err != nil {
		t.Fatal(err)
	}
	sources, err := pde.ParseQueries(fullQuery)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 20; s++ {
		rng := rand.New(rand.NewSource(s))
		i, j := gen.LAVInstance(30, s%3 != 0, rng)
		lt := newLAVTruth(i)
		// Enumerating LAV image solutions is exponential in the nulls;
		// the compiled path returns the same answers directly.
		res, err := pde.CertainAnswers(lav, i, j, point[0], pde.Options{Compiled: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCertain(res.SolutionExists, rows(res.Answers), lt.solvable(), lt.answers("p3")); err != nil {
			t.Errorf("LAV seed %d: %v", s, err)
		}

		i, j = gen.FullSTInstance(12, s%3 != 0, rng)
		ft := newFullTruth(i)
		res, err = pde.CertainAnswers(full, i, j, sources[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCertain(res.SolutionExists, rows(res.Answers), ft.solvable, ft.sources); err != nil {
			t.Errorf("FullST seed %d: %v", s, err)
		}
	}
}

func rows(ts []rel.Tuple) [][]string {
	var out [][]string
	for _, t := range ts {
		row := make([]string, len(t))
		for k, v := range t {
			row[k] = v.String()
		}
		out = append(out, row)
	}
	return out
}

// TestLAVTruthAppend covers the incremental truth an append chain uses:
// a Member arriving after its Person repairs the verdict.
func TestLAVTruthAppend(t *testing.T) {
	inst := func(facts string) *rel.Instance {
		i, err := pde.ParseInstance(facts)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	lt := newLAVTruth(inst("Person(a, g1). Member(a, g1). Person(b, g2). Person(b, g1)."))
	if lt.solvable() {
		t.Fatal("b has Person pairs without Member pairs, want unsolvable")
	}
	if got := lt.answers("b"); !slices.EqualFunc(got, [][]string{{"g1"}, {"g2"}}, slices.Equal[[]string]) {
		t.Errorf("answers(b) = %v, want [[g1] [g2]]", got)
	}
	lt.add(inst("Member(b, g2). Member(b, g1). Member(b, g1)."))
	if !lt.solvable() {
		t.Error("every Person pair has its Member pair after the append, want solvable")
	}
}
