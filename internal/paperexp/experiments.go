package paperexp

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/graph"
	"repro/internal/hom"
	"repro/internal/oracle"
	"repro/internal/pdms"
	"repro/internal/reductions"
	"repro/internal/rel"
	"repro/internal/repair"
	"repro/internal/uni"
	"repro/internal/workload"
	"repro/pde"
)

// Experiments returns the registry in the order pdxbench prints it.
func Experiments() []Experiment {
	return []Experiment{
		{"EXP-EX1", "Example 1: existence of solutions on the three instance families", runExample1, exactly(
			// The solver enumerates one (minimal) image solution for the
			// triangle; "multiple" rests on a second one verifying.
			[]any{"I = {E(a,b), E(b,c)}", false, 0, "-", "no solution"},
			[]any{"I = {E(a,a)}", true, 1, "-", "unique solution {H(a,a)}"},
			[]any{"I = {E(a,b), E(b,c), E(a,c)}", true, 1, true, "multiple solutions"})},
		{"EXP-MARK", "Definitions 8-9: classification of every paper setting", runClassify, exactly(
			[]any{"example1", true, true, true, 0, false, true},
			[]any{"clique-thm3", true, false, false, 0, false, false},
			[]any{"boundary-egd", true, true, true, 1, false, false},
			[]any{"boundary-full-tgd", true, true, true, 1, false, false},
			[]any{"boundary-3col", true, true, true, 0, true, false},
			[]any{"lav-records", true, true, true, 0, false, true},
			[]any{"full-st-graph", true, false, true, 0, false, true},
			[]any{"genomic", true, true, true, 0, false, true})},
		{"EXP-T1", "Theorem 1: NP upper bound — search effort stays finite, witnesses verified", runUpperBound,
			each("SOL differs from solvable, or the witness is not a solution", func(t *Table, r int) bool {
				return t.Cell(r, "SOL") == t.Cell(r, "solvable") && (t.Cell(r, "SOL") == false || t.Cell(r, "witness verified") == true)
			})},
		{"EXP-T3", "Theorem 3: CLIQUE reduction — agreement and exponential scaling", runClique, same("has k-clique", "SOL")},
		{"EXP-T3Q", "Theorem 3: coNP certain answers — certain(q) = no k-clique", runCertainClique,
			each("certain(q) is not ¬(has k-clique)", func(t *Table, r int) bool {
				return t.Cell(r, "certain(q)") != t.Cell(r, "has k-clique")
			})},
		{"EXP-T4-LAV", "Theorem 4 / Cor. 2: polynomial scaling with LAV Σts",
			tractableSweep(workload.LAVSetting(), workload.LAVInstance, 100, 200, 400, 800, 1600), same("solvable", "SOL")},
		{"EXP-T4-FULL", "Theorem 4 / Cor. 1: polynomial scaling with full Σst",
			tractableSweep(workload.FullSTSetting(), workload.FullSTInstance, 50, 100, 200, 400), same("solvable", "SOL")},
		{"EXP-T5", "Theorem 5: hom(I_can -> I) characterizes SOL under condition 1", runTheorem5,
			each("Figure 3 disagrees with the generic solver", func(t *Table, r int) bool { return t.Int(r, "disagreements") == 0 })},
		{"EXP-T6", "Theorem 6: max nulls per block — O(1) inside C_tract, growing outside", runBlocks,
			each("max nulls/block is not constant over n inside C_tract, or not growing with k outside", func(t *Table, r int) bool {
				setting := t.Cell(r, "setting").(string)
				if r == 0 || setting != t.Cell(r-1, "setting") {
					return true
				}
				prev, cur := t.Int(r-1, "max nulls/block"), t.Int(r, "max nulls/block")
				inside := strings.HasSuffix(setting, "(C_tract)")
				return inside && cur == prev || !inside && cur > prev
			})},
		{"EXP-L1", "Lemma 1: solution-aware chase length is polynomial (linear here)", runChaseLength, same("restricted steps", "predicted d*n")},
		{"EXP-L2", "Lemma 2: small solutions extracted from bloated ones", runSmallSolutions,
			each("an extracted instance is not a solution or is larger than the bloated one", func(t *Table, r int) bool {
				return t.Cell(r, "all solutions") == true && t.Int(r, "|chase-extracted|") <= t.Int(r, "|bloated|") &&
					t.Int(r, "|greedy-minimal|") <= t.Int(r, "|bloated|")
			})},
		{"EXP-WA", "Definition 5: weakly acyclic chase terminates; cyclic chase does not", runWeakAcyclicity, exactly(
			[]any{"chain depth 3", true, "fixpoint", 60},
			[]any{cyclicFamily, false, budgetExhausted, 1000})},
		{"EXP-RANK", "Substrate: position ranks bound the chase length (Fagin et al.)", runRanks,
			each("a chain outruns its budget hint, or the cyclic family has a finite rank", func(t *Table, r int) bool {
				if t.Cell(r, "family") == cyclicFamily {
					return t.Cell(r, "max rank") == "unbounded"
				}
				return t.Int(r, "chase steps") <= t.Int(r, "budget hint")
			})},
		{"EXP-EGD", "Section 4 boundary: a single target egd is NP-hard",
			boundarySweep(reductions.BoundaryEgdSetting()), same("has k-clique", "SOL")},
		{"EXP-FULLT", "Section 4 boundary: a single full target tgd is NP-hard",
			boundarySweep(reductions.BoundaryFullTgdSetting()), same("has k-clique", "SOL")},
		{"EXP-3COL", "Section 4 boundary: disjunctive Σts encodes 3-colorability", runThreeCol, same("3-colorable", "SOL")},
		{"EXP-DE", "Section 3 contrast: data exchange always has solutions, PDE does not", runDataExchange,
			each("data exchange is unsolvable on a trial, or peer data exchange never is", func(t *Table, r int) bool {
				return t.Int(r, "data exchange solvable") == t.Int(r, "trials") &&
					t.Int(r, "peer data exchange solvable") < t.Int(r, "trials")
			})},
		{"EXP-CORE", "Substrate: cores of canonical universal solutions (Fagin et al.)", runCores,
			each("want |core| ≤ |restricted| < |oblivious| and the core a solution", func(t *Table, r int) bool {
				return t.Int(r, "|core|") <= t.Int(r, "|restricted chase|") &&
					t.Int(r, "|restricted chase|") < t.Int(r, "|oblivious chase|") && t.Cell(r, "solution") == true
			})},
		{"EXP-REPAIR", "Extension: repair semantics when no solution exists", runRepairs,
			each("want plain SOL iff clean, and a repair dropping exactly the dirty facts", func(t *Table, r int) bool {
				dirty := t.Int(r, "dirty facts")
				return t.Cell(r, "plain SOL") == (dirty == 0) && t.Int(r, "max removed") == dirty
			})},
		{"EXP-PDMS", "Section 2: PDE solutions = consistent PDMS data instances", runPDMS, same("agreements", "total")},
		{"EXP-MULTI", "Section 2: multi-PDE settings reduce to a single PDE", runMultiPDE, same("agreements", "total")},
		{"EXP-CACHE", "Serving: cached canonical-instance fixpoints and incremental re-chase on append", runCache,
			// Each resume row is followed by the re-chase of the same grown
			// instance from scratch.
			each("a cached verdict rejects the solvable instance, or the resume differs from the re-chase", func(t *Table, r int) bool {
				switch t.Cell(r, "path") {
				case "cold", "warm":
					return t.Cell(r, "SOL") == true
				case "resume(+16)":
					return r+1 < len(t.Rows) && sameCells(t, r, r+1, "SOL", "|I_can|", "|J_can|")
				}
				return true
			})},
	}
}

// each claims that ok holds on every row; a failure names row and why.
func each(why string, ok func(t *Table, r int) bool) func(*Table) error {
	return func(t *Table) error {
		for r := range t.Rows {
			if !ok(t, r) {
				return fmt.Errorf("row %d %v: %s", r+1, t.Rows[r], why)
			}
		}
		return nil
	}
}

// same claims that columns a and b agree on every row.
func same(a, b string) func(*Table) error {
	return each(a+" differs from "+b, func(t *Table, r int) bool { return t.Cell(r, a) == t.Cell(r, b) })
}

// sameCells reports whether rows r and q agree on every column of cols.
func sameCells(t *Table, r, q int, cols ...string) bool {
	for _, h := range cols {
		if t.Cell(r, h) != t.Cell(q, h) {
			return false
		}
	}
	return true
}

// exactly claims the whole table: its rows are want.
func exactly(want ...[]any) func(*Table) error {
	return func(t *Table) error {
		if got := fmt.Sprint(t.Rows); got != fmt.Sprint(want) {
			return fmt.Errorf("rows %s, want %v", got, want)
		}
		return nil
	}
}

// mustParseInstance parses one of this package's constant fact texts.
func mustParseInstance(facts string) *rel.Instance {
	i, err := pde.ParseInstance(facts)
	if err != nil {
		panic(err)
	}
	return i
}

// graphCase is one input graph of a reduction, with its clique size k.
type graphCase struct {
	name string
	g    *graph.Graph
	k    int
}

func runExample1() (*Table, error) {
	s := workload.Example1Setting()
	t := &Table{Header: []string{"instance", "SOL", "image solutions", "2nd solution verified", "paper says"}}
	for _, c := range []struct{ name, facts, second, paper string }{
		{"I = {E(a,b), E(b,c)}", "E(a,b). E(b,c).", "", "no solution"},
		{"I = {E(a,a)}", "E(a,a).", "", "unique solution {H(a,a)}"},
		{"I = {E(a,b), E(b,c), E(a,c)}", "E(a,b). E(b,c). E(a,c).", "H(a,b). H(b,c). H(a,c).", "multiple solutions"},
	} {
		i := mustParseInstance(c.facts)
		res, err := pde.ExistsSolution(s, i, pde.NewInstance())
		if err != nil {
			return nil, err
		}
		images, err := core.ForEachImageSolution(s, i, rel.NewInstance(), core.SolveOptions{}, func(*rel.Instance) bool { return true })
		if err != nil {
			return nil, err
		}
		var second any = "-"
		if c.second != "" {
			second = s.IsSolution(i, rel.NewInstance(), mustParseInstance(c.second))
		}
		t.add(c.name, res.Exists, images.Solutions, second, c.paper)
	}
	return t, nil
}

func runClassify() (*Table, error) {
	t := &Table{Header: []string{"setting", "cond 1", "cond 2.1", "cond 2.2", "Σt", "disj Σts", "in C_tract"}}
	for _, s := range []*core.Setting{
		workload.Example1Setting(),
		reductions.CliqueSetting(),
		reductions.BoundaryEgdSetting(),
		reductions.BoundaryFullTgdSetting(),
		reductions.ThreeColSetting(),
		workload.LAVSetting(),
		workload.FullSTSetting(),
		workload.GenomicSetting(),
	} {
		rep := s.Classify()
		t.add(s.Name, rep.Cond1, rep.Cond21, rep.Cond22, len(s.T), rep.HasDisjunctiveTS, rep.InCtract)
	}
	return t, nil
}

func runUpperBound() (*Table, error) {
	rng := rand.New(rand.NewSource(11))
	s := workload.LAVSetting()
	t := &Table{Header: []string{"n", "solvable", "SOL", "nulls", "search nodes", "witness verified"}}
	for _, n := range []int{10, 20, 40} {
		for _, solvable := range []bool{true, false} {
			i, j := workload.LAVInstance(n, solvable, rng)
			got, witness, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
			if err != nil {
				return nil, err
			}
			var verified any = "-"
			if got {
				verified = s.IsSolution(i, j, witness)
			}
			t.add(n, solvable, got, stats.NullCount, stats.Nodes, verified)
		}
	}
	return t, nil
}

// runClique is the headline hardness experiment: SOL on the Theorem 3
// setting agrees with brute-force CLIQUE while search effort grows
// exponentially with k; the tractable families (EXP-T4) stay polynomial.
func runClique() (*Table, error) {
	rng := rand.New(rand.NewSource(5))
	var cases []graphCase
	for _, k := range []int{2, 3, 4} {
		g := graph.Random(8, 0.3, rng)
		graph.PlantClique(g, k, rng)
		cases = append(cases, graphCase{fmt.Sprintf("G(8,.3)+K%d", k), g, k}, graphCase{"G(8,.2)", graph.Random(8, 0.2, rng), k})
	}
	return cliqueSweep(reductions.CliqueSetting(), cases)
}

// smallGraphs are fixed reduction inputs, each with its clique size k.
func smallGraphs() []graphCase {
	return []graphCase{{"K3", graph.Complete(3), 3}, {"P4", graph.Path(4), 3}, {"C5", graph.Cycle(5), 3}, {"K4", graph.Complete(4), 4}}
}

// boundarySweep runs a Section 4 boundary setting on small graphs.
func boundarySweep(s *core.Setting) func() (*Table, error) {
	return func() (*Table, error) {
		k4MinusEdge := graph.New(4)
		for _, e := range graph.Complete(4).Edges() {
			if e != [2]int{0, 1} {
				k4MinusEdge.AddEdge(e[0], e[1]) //nolint:errcheck // in-range
			}
		}
		t, err := cliqueSweep(s, append(smallGraphs(), graphCase{"K4-e", k4MinusEdge, 4}))
		if err == nil {
			rep := s.Classify()
			t.Note = fmt.Sprintf("Σst/Σts satisfy C_tract conditions 1 and 2.1: %v; Σt size: %d", rep.Cond1 && rep.Cond21, len(s.T))
		}
		return t, err
	}
}

// cliqueSweep decides SOL for each case's Theorem 3 instance I(G, k).
func cliqueSweep(s *core.Setting, cases []graphCase) (*Table, error) {
	t := &Table{Header: []string{"graph", "n", "k", "has k-clique", "SOL", "search nodes", "time"}}
	for _, c := range cases {
		i, j := reductions.CliqueInstance(c.g, c.k)
		start := time.Now()
		got, _, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 100_000_000})
		if err != nil {
			return nil, err
		}
		t.add(c.name, c.g.N(), c.k, c.g.HasClique(c.k), got, stats.Nodes, time.Since(start).Round(time.Microsecond))
	}
	return t, nil
}

func runCertainClique() (*Table, error) {
	s := reductions.CliqueSetting()
	q := certain.UCQ{{Name: "q", Body: reductions.CliqueQuery()}}
	rng := rand.New(rand.NewSource(6))
	cases := smallGraphs()
	for n := 0; n < 2; n++ {
		cases = append(cases, graphCase{fmt.Sprintf("G(8,.4)#%d", n), graph.Random(8, 0.4, rng), 3})
	}
	t := &Table{Header: []string{"graph", "k", "has k-clique", "certain(q)"}}
	for _, c := range cases {
		i, j := reductions.CliqueInstanceOverVertices(c.g, c.k)
		res, err := certain.Boolean(s, i, j, q, certain.Options{Solve: core.SolveOptions{MaxNodes: 100_000_000}})
		if err != nil {
			return nil, err
		}
		t.add(c.name, c.k, c.g.HasClique(c.k), res.Certain)
	}
	return t, nil
}

// tractableSweep runs the Figure 3 algorithm over a Theorem 4 family at
// growing sizes; near-linear times make the polynomial bound visible.
func tractableSweep(s *core.Setting, gen func(int, bool, *rand.Rand) (*rel.Instance, *rel.Instance), sizes ...int) func() (*Table, error) {
	return func() (*Table, error) {
		rng := rand.New(rand.NewSource(7))
		t := &Table{Header: []string{"n", "solvable", "SOL", "|I_can|", "max block nulls", "time"}}
		for _, n := range sizes {
			for _, solvable := range []bool{true, false} {
				i, j := gen(n, solvable, rng)
				start := time.Now()
				got, trace, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
				if err != nil {
					return nil, err
				}
				t.add(n, solvable, got, trace.ICan.NumFacts(), trace.MaxBlockNulls, time.Since(start).Round(time.Microsecond))
			}
		}
		return t, nil
	}
}

func runTheorem5() (*Table, error) {
	const trials = 10
	rng := rand.New(rand.NewSource(8))
	t := &Table{Header: []string{"setting", "trials", "agreements", "disagreements"}}
	for _, fam := range []struct {
		name string
		s    *core.Setting
		gen  func() (*rel.Instance, *rel.Instance)
	}{
		{"lav-records", workload.LAVSetting(), func() (*rel.Instance, *rel.Instance) {
			return workload.LAVInstance(10+rng.Intn(20), rng.Intn(2) == 0, rng)
		}},
		{"full-st-graph", workload.FullSTSetting(), func() (*rel.Instance, *rel.Instance) {
			return workload.FullSTInstance(8+rng.Intn(10), rng.Intn(2) == 0, rng)
		}},
		{"clique-thm3", reductions.CliqueSetting(), func() (*rel.Instance, *rel.Instance) {
			return reductions.CliqueInstance(graph.Random(6, 0.45, rng), 3)
		}},
	} {
		agree := 0
		for n := 0; n < trials; n++ {
			i, j := fam.gen()
			tr, _, err := core.ExistsSolutionTractable(fam.s, i, j, core.TractableOptions{})
			if err != nil {
				return nil, err
			}
			gen, _, _, err := core.ExistsSolutionGeneric(fam.s, i, j, core.SolveOptions{MaxNodes: 50_000_000})
			if err != nil {
				return nil, err
			}
			if tr == gen {
				agree++
			}
		}
		t.add(fam.name, trials, agree, trials-agree)
	}
	return t, nil
}

func runBlocks() (*Table, error) {
	rng := rand.New(rand.NewSource(9))
	t := &Table{Header: []string{"setting", "parameter", "|I_can|", "blocks", "max nulls/block"}}
	// Inside C_tract the count is constant across sizes: 0 for the LAV
	// family, whose Σts heads are full, and 1 for the genomic family,
	// whose ts-vouch tgd invents one organism witness per block.
	for _, fam := range []struct {
		name, param string
		s           *core.Setting
		sizes       []int
		gen         func(int) (*rel.Instance, *rel.Instance)
	}{
		{"lav-records (C_tract)", "n", workload.LAVSetting(), []int{50, 100, 200}, func(n int) (*rel.Instance, *rel.Instance) {
			return workload.LAVInstance(n, true, rng)
		}},
		{"genomic (C_tract)", "n", workload.GenomicSetting(), []int{50, 100, 200}, func(n int) (*rel.Instance, *rel.Instance) {
			return workload.GenomicInstance(n, true, rng)
		}},
		{"clique-thm3 (outside)", "k", reductions.CliqueSetting(), []int{3, 4, 5, 6}, func(k int) (*rel.Instance, *rel.Instance) {
			return reductions.CliqueInstance(graph.Complete(k), k)
		}},
	} {
		for _, n := range fam.sizes {
			i, j := fam.gen(n)
			_, trace, err := core.ExistsSolutionTractable(fam.s, i, j, core.TractableOptions{})
			if err != nil {
				return nil, err
			}
			t.add(fam.name, fmt.Sprintf("%s=%d", fam.param, n), trace.ICan.NumFacts(), trace.Blocks, trace.MaxBlockNulls)
		}
	}
	return t, nil
}

func runChaseLength() (*Table, error) {
	t := &Table{Header: []string{"depth d", "n (T0 facts)", "restricted steps", "oblivious steps", "predicted d*n"}}
	for _, depth := range []int{2, 4} {
		for _, n := range []int{50, 100, 200} {
			deps, inst := workload.ChainDeps(depth), workload.ChainInstance(n)
			res, err := chase.Run(inst, deps, chase.Options{})
			if err != nil {
				return nil, err
			}
			obl, err := oracle.Chase(inst, deps, nil, true, chase.DefaultMaxSteps)
			if err != nil {
				return nil, err
			}
			t.add(depth, n, res.Steps, obl.Steps, depth*n)
		}
	}
	return t, nil
}

func runSmallSolutions() (*Table, error) {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(10))
	t := &Table{Header: []string{"n", "|bloated|", "|chase-extracted|", "|greedy-minimal|", "all solutions"}}
	for _, n := range []int{20, 40, 80} {
		i, j := workload.LAVInstance(n, true, rng)
		sol, _, err := core.FindSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			return nil, err
		}
		// Bloat: for every Rec(x, g, u) fact add five more witnesses
		// with junk note values — all allowed by Σts (the note position
		// is unconstrained) but none required.
		bloated := sol.Clone()
		for _, f := range sol.Facts() {
			for extra := 0; extra < 5; extra++ {
				bloated.Add("Rec", f.Args[0], f.Args[1], rel.Const(fmt.Sprintf("junk%d", extra)))
			}
		}
		if !s.IsSolution(i, j, bloated) {
			return nil, fmt.Errorf("n=%d: the bloated instance is not a solution", n)
		}
		small, err := core.SmallSolution(s, i, j, bloated, core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		minimal := core.MinimizeSolution(s, i, j, small, core.SolveOptions{})
		t.add(n, bloated.NumFacts(), small.NumFacts(), minimal.NumFacts(), s.IsSolution(i, j, small) && s.IsSolution(i, j, minimal))
	}
	return t, nil
}

const (
	cyclicFamily    = "T(x,y) -> ∃z T(y,z)"
	budgetExhausted = "budget exhausted (diverges)"
)

func runWeakAcyclicity() (*Table, error) {
	t := &Table{Header: []string{"dependency set", "weakly acyclic", "chase outcome", "steps"}}
	for _, c := range []struct {
		name     string
		deps     []dep.Dependency
		inst     *rel.Instance
		maxSteps int
	}{
		{"chain depth 3", workload.ChainDeps(3), workload.ChainInstance(20), 0},
		{cyclicFamily, workload.CyclicDeps(), workload.CyclicInstance(), 1000},
	} {
		res, err := chase.Run(c.inst, c.deps, chase.Options{MaxSteps: c.maxSteps})
		outcome := "fixpoint"
		if errors.Is(err, chase.ErrBudgetExhausted) {
			outcome = budgetExhausted
		} else if err != nil {
			return nil, err
		}
		t.add(c.name, dep.WeaklyAcyclic(dep.TGDs(c.deps)), outcome, res.Steps)
	}
	return t, nil
}

func runRanks() (*Table, error) {
	const n = 40
	t := &Table{Header: []string{"family", "max rank", "n", "chase steps", "budget hint"}}
	for _, depth := range []int{1, 2, 4, 6} {
		deps := workload.ChainDeps(depth)
		tgds := dep.TGDs(deps)
		r, err := dep.MaxRank(tgds)
		if err != nil {
			return nil, err
		}
		hint := chase.BudgetHint(tgds, n)
		res, err := chase.Run(workload.ChainInstance(n), deps, chase.Options{MaxSteps: hint})
		if err != nil {
			return nil, err
		}
		t.add(fmt.Sprintf("chain depth %d", depth), r, n, res.Steps, hint)
	}
	// The cyclic family has no finite rank, so its chase falls back to
	// the default budget.
	var rank any = "unbounded"
	if r, err := dep.MaxRank(dep.TGDs(workload.CyclicDeps())); err == nil {
		rank = r
	}
	t.add(cyclicFamily, rank, "-", "diverges", fmt.Sprintf("%d (fallback)", chase.DefaultMaxSteps))
	return t, nil
}

func runThreeCol() (*Table, error) {
	s := reductions.ThreeColSetting()
	rep := s.Classify()
	t := &Table{Header: []string{"graph", "3-colorable", "SOL", "search nodes"}}
	t.Note = fmt.Sprintf("non-disjunctive fragment satisfies conditions 1 and 2.2: %v; disjunctive Σts: %v",
		rep.Cond1 && rep.Cond22, rep.HasDisjunctiveTS)
	wheel5 := graph.New(6)
	for v := 0; v < 5; v++ {
		wheel5.AddEdge(v, (v+1)%5) //nolint:errcheck // in-range
		wheel5.AddEdge(5, v)       //nolint:errcheck // in-range
	}
	for _, c := range []graphCase{
		{"K3", graph.Complete(3), 0},
		{"K4", graph.Complete(4), 0},
		{"C5", graph.Cycle(5), 0},
		{"P6", graph.Path(6), 0},
		{"W5 (wheel)", wheel5, 0},
	} {
		i, j := reductions.ThreeColInstance(c.g)
		got, _, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 100_000_000})
		if err != nil {
			return nil, err
		}
		t.add(c.name, c.g.Is3Colorable(), got, stats.Nodes)
	}
	return t, nil
}

// edgeInstance returns one r fact per edge of g, over constants v0, v1, ….
func edgeInstance(r string, g *graph.Graph) *rel.Instance {
	i := rel.NewInstance()
	for _, e := range g.Edges() {
		i.Add(r, rel.Const(fmt.Sprintf("v%d", e[0])), rel.Const(fmt.Sprintf("v%d", e[1])))
	}
	return i
}

func runDataExchange() (*Table, error) {
	const trials = 20
	pdeSetting, deSetting := workload.Example1Setting(), workload.Example1Setting()
	deSetting.TS = nil
	rng := rand.New(rand.NewSource(12))
	var solvable [2]int
	for n := 0; n < trials; n++ {
		i := edgeInstance("E", graph.Random(6, 0.3, rng))
		for k, s := range []*core.Setting{deSetting, pdeSetting} {
			ok, _, _, err := core.ExistsSolutionGeneric(s, i, rel.NewInstance(), core.SolveOptions{})
			if err != nil {
				return nil, err
			}
			if ok {
				solvable[k]++
			}
		}
	}
	t := &Table{Header: []string{"instances", "trials", "data exchange solvable", "peer data exchange solvable"}}
	t.add("random G(6,.3) digraphs", trials, solvable[0], solvable[1])
	return t, nil
}

// runCores measures the gap between the oblivious chase's canonical
// universal solution (from the reference chase, oracle.Chase) and its
// core, the smallest universal solution.
// Each employee reports to up to three managers, so the oblivious chase
// invents an Assigned null per Emp fact where the core keeps one per
// employee; the restricted chase is already core-sized here.
func runCores() (*Table, error) {
	s := workload.StaffingSetting()
	rng := rand.New(rand.NewSource(15))
	t := &Table{Header: []string{"n (Emp facts)", "|restricted chase|", "|oblivious chase|", "|core|", "solution"}}
	for _, n := range []int{10, 20, 40} {
		i := rel.NewInstance()
		for k := 0; k < n; k++ {
			for m := 0; m < 3; m++ {
				i.Add("Emp", rel.Const(fmt.Sprintf("e%d", k)), rel.Const(fmt.Sprintf("e%d", rng.Intn(n))))
			}
		}
		restricted, err := chase.Run(i, s.StDeps(), chase.Options{})
		if err != nil {
			return nil, err
		}
		oblivious, err := oracle.Chase(i, s.StDeps(), nil, true, chase.DefaultMaxSteps)
		if err != nil {
			return nil, err
		}
		oblTarget := oblivious.Instance.Restrict(s.Target)
		c := uni.Core(oblTarget, hom.Options{})
		t.add(n, restricted.Instance.Restrict(s.Target).NumFacts(), oblTarget.NumFacts(), c.NumFacts(),
			s.IsSolution(i, rel.NewInstance(), c))
	}
	return t, nil
}

func runRepairs() (*Table, error) {
	s := workload.GenomicSetting()
	rng := rand.New(rand.NewSource(16))
	t := &Table{Header: []string{"n", "dirty facts", "plain SOL", "repairs", "max removed", "certain accs under repairs"}}
	q := certain.UCQ{{Name: "q", Head: []string{"a"},
		Body: []dep.Atom{dep.NewAtom("GeneProduct", dep.Var("a"), dep.Var("n"))}}}
	for _, tc := range []struct{ n, dirty int }{{10, 0}, {10, 1}, {10, 2}, {20, 2}} {
		i, j := workload.GenomicInstance(tc.n, true, rng)
		for d := 0; d < tc.dirty; d++ {
			j.Add("GeneProduct", rel.Const(fmt.Sprintf("LOCAL%d", d)), rel.Const("unvouched"))
		}
		plain, _, _, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		reps, err := repair.Repairs(s, i, j, repair.Options{})
		if err != nil {
			return nil, err
		}
		maxRemoved := 0
		for _, r := range reps.Repairs {
			maxRemoved = max(maxRemoved, r.Removed)
		}
		answers, _, err := repair.CertainAnswers(s, i, j, q, repair.Options{})
		if err != nil {
			return nil, err
		}
		t.add(tc.n, tc.dirty, plain, len(reps.Repairs), maxRemoved, len(answers))
	}
	return t, nil
}

func runPDMS() (*Table, error) {
	s := workload.GenomicSetting()
	p, err := pdms.FromPDE(s)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(13))
	agree, total := 0, 0
	for n := 0; n < 10; n++ {
		i, j := workload.GenomicInstance(10+rng.Intn(20), true, rng)
		sol, _, err := core.FindSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			return nil, err
		}
		// Dropping a solution fact breaks Σst or J ⊆ K.
		bad := rel.NewInstance()
		for _, f := range sol.Facts()[1:] {
			bad.AddFact(f)
		}
		for _, k := range []*rel.Instance{sol, bad} {
			d := pdms.DataInstance{Local: pdms.PDEDataInstance(s, i, j), Peers: pdms.PDESolutionAssignment(i, k)}
			if s.IsSolution(i, j, k) == p.Consistent(d, hom.Options{}) {
				agree++
			}
			total++
		}
	}
	t := &Table{Header: []string{"correspondence", "agreements", "total"}}
	t.add("solution <-> consistent data instance", agree, total)
	return t, nil
}

// multiPeers is the two-peer multi-PDE setting of EXP-MULTI: Example 1
// and a peer that copies F into the shared target H and accepts only F
// edges back.
func multiPeers() *core.MultiSetting {
	p2, err := pde.ParseSetting(`
setting peer2
source F/2
target H/2
st: F(x,y) -> H(x,y)
ts: H(x,y) -> F(x,y)
`)
	if err != nil {
		panic(err) // a constant text
	}
	return &core.MultiSetting{Name: "multi", Peers: []*core.Setting{workload.Example1Setting(), p2}}
}

// multiAgrees reports whether the combined setting's verdict holds for
// m on sources. A witness must be a multi-PDE solution. A no-solution
// verdict must see m reject the Σst-forced target, the union of each
// peer's Σst chase: every peer's Σst is full and Σt is empty, so every
// solution contains that target, and Σts only gains obligations as the
// target grows.
func multiAgrees(m *core.MultiSetting, sources []*rel.Instance, exists bool, witness *rel.Instance) (bool, error) {
	if exists {
		return m.IsSolution(sources, rel.NewInstance(), witness)
	}
	forced := rel.NewInstance()
	for k, p := range m.Peers {
		res, err := chase.Run(sources[k], p.StDeps(), chase.Options{})
		if err != nil {
			return false, err
		}
		forced.AddAll(res.Instance.Restrict(p.Target))
	}
	ok, err := m.IsSolution(sources, rel.NewInstance(), forced)
	return !ok, err
}

func runMultiPDE() (*Table, error) {
	m := multiPeers()
	combined, err := m.Combine()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(14))
	solvable, agree, total := 0, 0, 0
	for ; total < 15; total++ {
		g := graph.Random(5, 0.4, rng)
		i2 := rel.NewInstance()
		if rng.Intn(2) == 0 && g.NumEdges() > 0 {
			e := g.Edges()[0]
			i2.Add("F", rel.Const(fmt.Sprintf("v%d", e[0])), rel.Const(fmt.Sprintf("v%d", e[1])))
		}
		sources := []*rel.Instance{edgeInstance("E", g), i2}
		union, err := m.CombineSources(sources)
		if err != nil {
			return nil, err
		}
		got, witness, _, err := core.ExistsSolutionGeneric(combined, union, rel.NewInstance(), core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		ok, err := multiAgrees(m, sources, got, witness)
		if err != nil {
			return nil, err
		}
		if got {
			solvable++
		}
		if ok {
			agree++
		}
	}
	t := &Table{Header: []string{"correspondence", "solvable", "agreements", "total"}}
	t.add("combined-setting verdicts valid for the multi-PDE setting", solvable, agree, total)
	return t, nil
}

// runCache measures what pdxd's chased-instance cache saves: a cold
// chase plus verdict versus the warm verdict phase alone against the
// cached trace, and an incremental 16-fact resume versus re-chasing the
// grown instance from scratch.
func runCache() (*Table, error) {
	s := workload.LAVSetting()
	var opts core.TractableOptions
	t := &Table{Header: []string{"n", "path", "SOL", "|I_can|", "|J_can|", "time", "speedup"}}
	for _, n := range []int{400, 800, 1600} {
		i, j := workload.LAVInstance(n, true, rand.New(rand.NewSource(7)))
		delta := workload.LAVAppend(16)
		grown := rel.Union(i, delta)
		var trace, next, scratch *core.TractableTrace
		var coldOK, warmOK, resumeOK, scratchOK, incremental bool
		var err error
		// step times f, which runs only while every earlier step succeeded.
		step := func(f func()) time.Duration {
			start := time.Now()
			if err == nil {
				f()
			}
			return time.Since(start)
		}
		cold := step(func() {
			if trace, err = core.ChaseCanonicalTractable(s, i, j, opts); err == nil {
				coldOK, _, err = core.ExistsSolutionTractableFrom(i, trace, opts)
			}
		})
		warm := step(func() { warmOK, _, err = core.ExistsSolutionTractableFrom(i, trace, opts) })
		resume := step(func() { next, incremental, _, err = core.ResumeCanonicalTractable(s, trace, delta, opts) })
		rechase := step(func() { scratch, err = core.ChaseCanonicalTractable(s, grown, j, opts) })
		step(func() { resumeOK, _, err = core.ExistsSolutionTractableFrom(grown, next, opts) })
		step(func() { scratchOK, _, err = core.ExistsSolutionTractableFrom(grown, scratch, opts) })
		if err == nil && !incremental {
			err = fmt.Errorf("n=%d: the append fell back to a re-chase", n)
		}
		if err != nil {
			return nil, err
		}
		row := func(path string, ok bool, tr *core.TractableTrace, d time.Duration, speedup string) {
			t.add(n, path, ok, tr.ICan.NumFacts(), tr.JCan.NumFacts(), d.Round(10*time.Microsecond), speedup)
		}
		row("cold", coldOK, trace, cold, "-")
		row("warm", warmOK, trace, warm, fmt.Sprintf("%.1fx", float64(cold)/float64(warm)))
		row("resume(+16)", resumeOK, next, resume, fmt.Sprintf("%.1fx", float64(rechase)/float64(resume)))
		row("rechase(+16)", scratchOK, scratch, rechase, "-")
	}
	return t, nil
}
