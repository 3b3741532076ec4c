package dep

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestRanksFullTgdsAreZero(t *testing.T) {
	tgds := []TGD{
		{
			Label: "f1",
			Body:  []Atom{NewAtom("A", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("B", Var("y"), Var("x"))},
		},
		{
			Label: "f2",
			Body:  []Atom{NewAtom("B", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("A", Var("x"), Var("y"))},
		},
	}
	ranks, err := PositionRanks(tgds)
	if err != nil {
		t.Fatal(err)
	}
	for p, r := range ranks {
		if r != 0 {
			t.Errorf("rank(%s) = %d, want 0 for full tgds", p, r)
		}
	}
	if m, _ := MaxRank(tgds); m != 0 {
		t.Errorf("MaxRank = %d", m)
	}
}

func TestRanksChainDepth(t *testing.T) {
	// T0 -> T1 -> T2 -> T3 with an existential per hop: the existential
	// position of T_i has rank i.
	var tgds []TGD
	names := []string{"T0", "T1", "T2", "T3"}
	for i := 0; i+1 < len(names); i++ {
		tgds = append(tgds, TGD{
			Label: "chain",
			Body:  []Atom{NewAtom(names[i], Var("x"), Var("y"))},
			Head:  []Atom{NewAtom(names[i+1], Var("y"), Var("z"))},
		})
	}
	ranks, err := PositionRanks(tgds)
	if err != nil {
		t.Fatal(err)
	}
	for lvl := 1; lvl < len(names); lvl++ {
		p := Position{names[lvl], 1} // z lands at position 1
		if ranks[p] != lvl {
			t.Errorf("rank(%s) = %d, want %d", p, ranks[p], lvl)
		}
	}
	if m, _ := MaxRank(tgds); m != 3 {
		t.Errorf("MaxRank = %d, want 3", m)
	}
}

func TestRanksRejectNonWeaklyAcyclic(t *testing.T) {
	tgds := []TGD{{
		Label: "cyc",
		Body:  []Atom{NewAtom("T", Var("x"), Var("y"))},
		Head:  []Atom{NewAtom("T", Var("y"), Var("z"))},
	}}
	if _, err := PositionRanks(tgds); err == nil {
		t.Error("non-weakly-acyclic set accepted")
	}
	if _, err := MaxRank(tgds); err == nil {
		t.Error("MaxRank accepted a cyclic set")
	}
}

func TestRanksOrdinaryCycleAllowed(t *testing.T) {
	// Ordinary cycle (full tgds both ways) feeding an existential: the
	// cycle itself is rank 0, the existential target is rank 1.
	tgds := []TGD{
		{
			Label: "f1",
			Body:  []Atom{NewAtom("A", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("B", Var("x"), Var("y"))},
		},
		{
			Label: "f2",
			Body:  []Atom{NewAtom("B", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("A", Var("x"), Var("y"))},
		},
		{
			Label: "ex",
			Body:  []Atom{NewAtom("A", Var("x"), Var("y"))},
			Head:  []Atom{NewAtom("C", Var("x"), Var("w"))},
		},
	}
	ranks, err := PositionRanks(tgds)
	if err != nil {
		t.Fatal(err)
	}
	if ranks[Position{"A", 0}] != 0 || ranks[Position{"B", 0}] != 0 {
		t.Errorf("cycle positions should be rank 0: %v", ranks)
	}
	if ranks[Position{"C", 1}] != 1 {
		t.Errorf("rank(C.1) = %d, want 1", ranks[Position{"C", 1}])
	}
}

func TestRanksDiamond(t *testing.T) {
	// Two paths into D.1: one with 1 special edge, one with 2; the rank
	// takes the max.
	tgds := []TGD{
		{ // A.0 -> D.1 special via one hop path A->D
			Label: "short",
			Body:  []Atom{NewAtom("A", Var("x"))},
			Head:  []Atom{NewAtom("D", Var("x"), Var("w"))},
		},
		{ // A.0 -> M.1 special
			Label: "mid",
			Body:  []Atom{NewAtom("A", Var("x"))},
			Head:  []Atom{NewAtom("M", Var("x"), Var("w"))},
		},
		{ // M.1 -> D.1 special (w existential, m propagated)
			Label: "long",
			Body:  []Atom{NewAtom("M", Var("x"), Var("m"))},
			Head:  []Atom{NewAtom("D", Var("m"), Var("w"))},
		},
	}
	ranks, err := PositionRanks(tgds)
	if err != nil {
		t.Fatal(err)
	}
	if ranks[Position{"D", 1}] != 2 {
		t.Errorf("rank(D.1) = %d, want 2 (long path)", ranks[Position{"D", 1}])
	}
	if ranks[Position{"D", 0}] != 1 {
		t.Errorf("rank(D.0) = %d, want 1 (carries M's existential)", ranks[Position{"D", 0}])
	}
}

// randomTGDs is a small random tgd set over three relations of arity
// one to three: bodies draw from four universal variables, heads from
// those and two existential ones, and a term is a constant now and
// then. A little over half the sets come out weakly acyclic.
func randomTGDs(rng *rand.Rand) []TGD {
	rels := []string{"R", "S", "T"}
	arity := map[string]int{}
	for _, r := range rels {
		arity[r] = 1 + rng.Intn(3)
	}
	atom := func(pick func() Term) Atom {
		r := rels[rng.Intn(len(rels))]
		args := make([]Term, arity[r])
		for k := range args {
			if rng.Intn(8) == 0 {
				args[k] = Cst("c")
			} else {
				args[k] = pick()
			}
		}
		return NewAtom(r, args...)
	}
	tgds := make([]TGD, 1+rng.Intn(4))
	for d := range tgds {
		tgds[d].Label = fmt.Sprintf("t%d", d)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			tgds[d].Body = append(tgds[d].Body, atom(func() Term { return Var(fmt.Sprintf("x%d", rng.Intn(4))) }))
		}
		bodyVars := varSet(tgds[d].Body)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			tgds[d].Head = append(tgds[d].Head, atom(func() Term {
				if v := fmt.Sprintf("x%d", rng.Intn(4)); bodyVars[v] && rng.Intn(4) != 0 {
					return Var(v)
				}
				return Var(fmt.Sprintf("z%d", rng.Intn(2)))
			}))
		}
	}
	return tgds
}

// closureAcyclic decides Definition 5 from the reflexive-transitive
// closure of the graph's edges: the set is weakly acyclic iff no
// special edge (u, v) has u reachable from v.
func closureAcyclic(g *DependencyGraph) bool {
	reach := map[Position]map[Position]bool{}
	for p := range g.nodes {
		reach[p] = map[Position]bool{p: true}
		for q := range g.ordinary[p] {
			reach[p][q] = true
		}
		for q := range g.special[p] {
			reach[p][q] = true
		}
	}
	for k := range g.nodes {
		for i := range g.nodes {
			if reach[i][k] {
				for j := range reach[k] {
					reach[i][j] = true
				}
			}
		}
	}
	for u, tos := range g.special {
		for v := range tos {
			if reach[v][u] {
				return false
			}
		}
	}
	return true
}

// simplePathRanks is the brute-force rank oracle: for each position,
// the most special edges on any simple path ending there, found by
// depth-first search from every position. Under weak acyclicity a
// repeated position closes a cycle with no special edge, so simple
// paths reach every rank.
func simplePathRanks(g *DependencyGraph) map[Position]int {
	ranks := map[Position]int{}
	onPath := map[Position]bool{}
	var walk func(p Position, specials int)
	walk = func(p Position, specials int) {
		ranks[p] = max(ranks[p], specials)
		onPath[p] = true
		for q := range g.nodes {
			if onPath[q] {
				continue
			}
			switch {
			case g.special[p][q]:
				walk(q, specials+1)
			case g.ordinary[p][q]:
				walk(q, specials)
			}
		}
		onPath[p] = false
	}
	for p := range g.nodes {
		walk(p, 0)
	}
	return ranks
}

// checkRanks runs one case of the Definition 5 property on a random
// tgd set: WeaklyAcyclic, PositionRanks, MaxRank and the witness agree
// with each other and with the closure oracle, every witness is a real
// cycle through a special edge, and the ranks equal the simple-path
// oracle. It reports whether the set was weakly acyclic.
func checkRanks(t *testing.T, rng *rand.Rand) bool {
	t.Helper()
	tgds := randomTGDs(rng)
	g := BuildDependencyGraph(tgds)
	acyclic := WeaklyAcyclic(tgds)
	ranks, err := PositionRanks(tgds)
	maxRank, maxErr := MaxRank(tgds)
	cycle, witnessAcyclic := WeaklyAcyclicWitness(tgds)
	if want := closureAcyclic(g); acyclic != want || (err == nil) != want || (maxErr == nil) != want || witnessAcyclic != want {
		t.Fatalf("%v: closure says weakly acyclic=%v; WeaklyAcyclic %v, PositionRanks error %v, MaxRank error %v, witness %s",
			tgds, want, acyclic, err, maxErr, FormatCycle(cycle))
	}
	if !acyclic {
		verifyCycle(t, g, cycle)
		if !strings.Contains(err.Error(), FormatCycle(cycle)) {
			t.Fatalf("PositionRanks error %q does not name the cycle %s", err, FormatCycle(cycle))
		}
		return false
	}
	if cycle != nil {
		t.Fatalf("%v: weakly acyclic set has the witness %s", tgds, FormatCycle(cycle))
	}
	want := simplePathRanks(g)
	if !reflect.DeepEqual(ranks, want) {
		t.Fatalf("%v: PositionRanks %v, simple-path oracle %v", tgds, ranks, want)
	}
	wantMax := 0
	for _, r := range want {
		wantMax = max(wantMax, r)
	}
	if maxRank != wantMax {
		t.Fatalf("%v: MaxRank %d, want %d", tgds, maxRank, wantMax)
	}
	return true
}

// TestRanksMatchSimplePathOracle runs checkRanks on 10,000 seeded
// random tgd sets and requires both verdicts to be well represented.
func TestRanksMatchSimplePathOracle(t *testing.T) {
	acyclic := 0
	const sets = 10000
	for seed := int64(0); seed < sets; seed++ {
		if checkRanks(t, rand.New(rand.NewSource(seed))) {
			acyclic++
		}
	}
	t.Logf("%d of %d sets weakly acyclic", acyclic, sets)
	if acyclic < sets/10 || sets-acyclic < sets/10 {
		t.Fatalf("%d of %d sets weakly acyclic; want both verdicts at least a tenth of the time", acyclic, sets)
	}
}

// FuzzPositionRanks runs checkRanks on fuzzed seeds.
func FuzzPositionRanks(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkRanks(t, rand.New(rand.NewSource(seed)))
	})
}
