package main

// Ground truth for the two setting families the benchmark serves,
// computed from the generated facts alone. The generators' solvable
// flags are never trusted: FullSTInstance(n, false, ·) sometimes yields
// a solvable instance (see oracle_test.go).

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/rel"
	"repro/pde/client"
)

// lavTruth is the ground truth of a workload.LAVSetting source. Σst
// copies each Person(x,g) into some Rec(x,g,u) and Σts demands
// Member(x,g) for every Rec(x,g,u), so a solution exists iff every
// Person pair is a Member pair, and the certain answers of
// q(g) :- Rec('x', g, u) are the groups of person x.
type lavTruth struct {
	groups  map[string][]string    // person -> groups of its Person facts, sorted
	pairs   map[[2]string]struct{} // Person pairs
	members map[[2]string]struct{} // Member pairs
	missing int                    // Person pairs without their Member pair
}

func newLAVTruth(inst *rel.Instance) *lavTruth {
	t := &lavTruth{
		groups:  make(map[string][]string),
		pairs:   make(map[[2]string]struct{}),
		members: make(map[[2]string]struct{}),
	}
	t.add(inst)
	return t
}

// add folds more facts into the truth (an append batch).
func (t *lavTruth) add(inst *rel.Instance) {
	for _, f := range inst.Facts() {
		p := [2]string{f.Args[0].String(), f.Args[1].String()}
		switch f.Rel {
		case "Person":
			if _, ok := t.pairs[p]; ok {
				continue
			}
			t.pairs[p] = struct{}{}
			g := t.groups[p[0]]
			i, _ := slices.BinarySearch(g, p[1])
			t.groups[p[0]] = slices.Insert(g, i, p[1])
			if _, ok := t.members[p]; !ok {
				t.missing++
			}
		case "Member":
			if _, ok := t.members[p]; ok {
				continue
			}
			t.members[p] = struct{}{}
			if _, ok := t.pairs[p]; ok {
				t.missing--
			}
		}
	}
}

func (t *lavTruth) solvable() bool { return t.missing == 0 }

// answers returns the certain answers of the point query on person.
func (t *lavTruth) answers(person string) [][]string {
	var out [][]string
	for _, g := range t.groups[person] {
		out = append(out, []string{g})
	}
	return out
}

// fullTruth is the ground truth of a workload.FullSTSetting source.
// Σst copies E into H, and any solution's H contains that copy, so a
// solution exists iff the copy itself satisfies Σts: every length-2 E
// path x→y→z has P2(x,z), and every E source x has some Adj(x,u). The
// certain answers of q(x) :- H(x,y) are then the distinct E sources.
type fullTruth struct {
	solvable bool
	sources  [][]string // sorted distinct E sources, one per row
}

func newFullTruth(inst *rel.Instance) *fullTruth {
	succ := make(map[string][]string)
	p2 := make(map[[2]string]bool)
	adj := make(map[string]bool)
	for _, f := range inst.Facts() {
		a, b := f.Args[0].String(), f.Args[1].String()
		switch f.Rel {
		case "E":
			succ[a] = append(succ[a], b)
		case "P2":
			p2[[2]string{a, b}] = true
		case "Adj":
			adj[a] = true
		}
	}
	t := &fullTruth{solvable: true}
	for _, x := range slices.Sorted(maps.Keys(succ)) {
		t.sources = append(t.sources, []string{x})
		if !adj[x] {
			t.solvable = false
		}
		for _, y := range succ[x] {
			for _, z := range succ[y] {
				if !p2[[2]string{x, z}] {
					t.solvable = false
				}
			}
		}
	}
	return t
}

// checkExists compares an exists-solution verdict with the truth.
func checkExists(resp client.SolveResponse, solvable bool) error {
	if resp.Exists != solvable {
		return fmt.Errorf("exists-solution: got exists=%v, ground truth %v", resp.Exists, solvable)
	}
	return nil
}

// checkCertain compares a certain-answers result with the truth. With
// no solution every tuple is vacuously certain, so only the verdict is
// compared.
func checkCertain(solutionExists bool, answers [][]string, solvable bool, want [][]string) error {
	if solutionExists != solvable {
		return fmt.Errorf("certain-answers: got solution_exists=%v, ground truth %v", solutionExists, solvable)
	}
	if !solvable {
		return nil
	}
	if !slices.EqualFunc(answers, want, slices.Equal[[]string]) {
		return fmt.Errorf("certain-answers: got %v, ground truth %v", answers, want)
	}
	return nil
}
