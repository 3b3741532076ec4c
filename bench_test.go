// Package repro's root benchmark suite regenerates every experiment of
// the reproduction as a testing.B benchmark (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for recorded results). The same
// workloads are printed as tables by cmd/pdxbench; the benchmarks here
// measure them.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

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

func example1Setting(b *testing.B) *pde.Setting {
	b.Helper()
	s, err := pde.ParseSetting(`
setting example1
source E/2
target H/2
st: E(x,z), E(z,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
`)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkExample1 (EXP-EX1): SOL on the three Example 1 instances.
func BenchmarkExample1(b *testing.B) {
	s := example1Setting(b)
	instances := make([]*pde.Instance, 0, 3)
	for _, src := range []string{
		"E(a,b). E(b,c).",
		"E(a,a).",
		"E(a,b). E(b,c). E(a,c).",
	} {
		i, err := pde.ParseInstance(src)
		if err != nil {
			b.Fatal(err)
		}
		instances = append(instances, i)
	}
	j := pde.NewInstance()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, i := range instances {
			if _, err := pde.ExistsSolution(s, i, j); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClassify (EXP-MARK): C_tract classification of the paper's
// settings.
func BenchmarkClassify(b *testing.B) {
	settings := []*core.Setting{
		reductions.CliqueSetting(),
		reductions.BoundaryEgdSetting(),
		reductions.BoundaryFullTgdSetting(),
		reductions.ThreeColSetting(),
		workload.LAVSetting(),
		workload.FullSTSetting(),
		workload.GenomicSetting(),
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, s := range settings {
			rep := s.Classify()
			_ = rep.InCtract
		}
	}
}

// BenchmarkUpperBoundSmallSolutions (EXP-T1): the generic solver on a
// setting with existential Σst — effort stays linear on this family.
func BenchmarkUpperBoundSmallSolutions(b *testing.B) {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(11))
	i, j := workload.LAVInstance(40, true, rng)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ok, _, _, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkCliqueReduction (EXP-T3): SOL via the Theorem 3 reduction,
// positive and negative instances, growing k — the NP behaviour shows
// as super-polynomial growth across the k sub-benchmarks.
func BenchmarkCliqueReduction(b *testing.B) {
	s := reductions.CliqueSetting()
	for _, k := range []int{2, 3, 4} {
		for _, planted := range []bool{true, false} {
			rng := rand.New(rand.NewSource(int64(17 * k)))
			g := graph.Random(8, 0.2, rng)
			if planted {
				graph.PlantClique(g, k, rng)
			}
			i, j := reductions.CliqueInstance(g, k)
			want := g.HasClique(k)
			name := fmt.Sprintf("k=%d/clique=%v", k, want)
			b.Run(name, func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					got, _, _, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 100_000_000})
					if err != nil || got != want {
						b.Fatalf("got=%v want=%v err=%v", got, want, err)
					}
				}
			})
		}
	}
}

// BenchmarkCertainClique (EXP-T3Q): coNP certain answers on the
// Theorem 3 query.
func BenchmarkCertainClique(b *testing.B) {
	s := reductions.CliqueSetting()
	q := certain.UCQ{{Name: "q", Body: reductions.CliqueQuery()}}
	g := graph.Cycle(5)
	i, j := reductions.CliqueInstanceOverVertices(g, 3)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		res, err := certain.Boolean(s, i, j, q, certain.Options{})
		if err != nil || !res.Certain {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkTractableLAV (EXP-T4-LAV): the Figure 3 algorithm on the LAV
// family; time per op should grow roughly linearly in n.
func BenchmarkTractableLAV(b *testing.B) {
	s := workload.LAVSetting()
	for _, n := range []int{100, 400, 1600} {
		rng := rand.New(rand.NewSource(7))
		i, j := workload.LAVInstance(n, true, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				ok, _, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkTractableFullST (EXP-T4-FULL): the Figure 3 algorithm on the
// full-Σst family.
func BenchmarkTractableFullST(b *testing.B) {
	s := workload.FullSTSetting()
	for _, n := range []int{50, 100, 200, 400} {
		rng := rand.New(rand.NewSource(7))
		i, j := workload.FullSTInstance(n, true, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				ok, _, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkTheorem5Agreement (EXP-T5): Figure 3 vs the generic solver
// on a condition-1 setting outside C_tract.
func BenchmarkTheorem5Agreement(b *testing.B) {
	s := reductions.CliqueSetting()
	g := graph.Cycle(5)
	i, j := reductions.CliqueInstance(g, 3)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tr, _, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		gen, _, _, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{})
		if err != nil || tr != gen {
			b.Fatalf("tractable=%v generic=%v err=%v", tr, gen, err)
		}
	}
}

// BenchmarkBlockNullCounts (EXP-T6): block decomposition of I_can; the
// quantity Theorem 6 bounds.
func BenchmarkBlockNullCounts(b *testing.B) {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(9))
	i, j := workload.LAVInstance(200, true, rng)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_, trace, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if trace.MaxBlockNulls > 1 {
			b.Fatalf("C_tract block with %d nulls", trace.MaxBlockNulls)
		}
	}
}

// BenchmarkSolutionAwareChase (EXP-L1): chase length on the weakly
// acyclic chain family.
func BenchmarkSolutionAwareChase(b *testing.B) {
	deps := workload.ChainDeps(4)
	for _, n := range []int{50, 100, 200} {
		inst := workload.ChainInstance(n)
		// Build a witness by chasing once with fresh nulls.
		res, err := chase.Run(inst, deps, chase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		witness := res.Instance
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				r, err := chase.RunSolutionAware(inst, deps, witness, chase.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Steps != 4*n {
					b.Fatalf("steps=%d want %d", r.Steps, 4*n)
				}
			}
		})
	}
}

// BenchmarkSmallSolutions (EXP-L2): Lemma 2 extraction from a bloated
// solution.
func BenchmarkSmallSolutions(b *testing.B) {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(10))
	i, j := workload.LAVInstance(50, true, rng)
	sol, _, err := core.FindSolutionTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	bloated := sol.Clone()
	for _, f := range sol.Facts() {
		for extra := 0; extra < 5; extra++ {
			bloated.Add("Rec", f.Args[0], f.Args[1], rel.Const(fmt.Sprintf("junk%d", extra)))
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		small, err := core.SmallSolution(s, i, j, bloated, core.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if small.NumFacts() >= bloated.NumFacts() {
			b.Fatal("no shrinkage")
		}
	}
}

// BenchmarkWeakAcyclicity (EXP-WA): the Definition 5 test plus chase
// behaviour on both sides of it.
func BenchmarkWeakAcyclicity(b *testing.B) {
	chain := workload.ChainDeps(4)
	inst := workload.ChainInstance(25)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := chase.Run(inst, chain, chase.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := chase.Run(workload.CyclicInstance(), workload.CyclicDeps(), chase.Options{MaxSteps: 200}); err == nil {
			b.Fatal("cyclic chase should exhaust its budget")
		}
	}
}

// BenchmarkBoundaryEgd (EXP-EGD): the Section 4 single-egd boundary
// setting on a positive and a negative instance.
func BenchmarkBoundaryEgd(b *testing.B) {
	benchBoundary(b, reductions.BoundaryEgdSetting())
}

// BenchmarkBoundaryFullTgd (EXP-FULLT): the Section 4 single-full-tgd
// boundary setting.
func BenchmarkBoundaryFullTgd(b *testing.B) {
	benchBoundary(b, reductions.BoundaryFullTgdSetting())
}

func benchBoundary(b *testing.B, s *core.Setting) {
	pos, _ := reductions.CliqueInstance(graph.Complete(3), 3)
	neg, _ := reductions.CliqueInstance(graph.Path(4), 3)
	j := rel.NewInstance()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		got, _, _, err := core.ExistsSolutionGeneric(s, pos, j, core.SolveOptions{})
		if err != nil || !got {
			b.Fatalf("positive instance: got=%v err=%v", got, err)
		}
		got, _, _, err = core.ExistsSolutionGeneric(s, neg, j, core.SolveOptions{})
		if err != nil || got {
			b.Fatalf("negative instance: got=%v err=%v", got, err)
		}
	}
}

// BenchmarkBoundary3Col (EXP-3COL): the disjunctive Σts boundary
// setting.
func BenchmarkBoundary3Col(b *testing.B) {
	s := reductions.ThreeColSetting()
	posI, posJ := reductions.ThreeColInstance(graph.Cycle(5))
	negI, negJ := reductions.ThreeColInstance(graph.Complete(4))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		got, _, _, err := core.ExistsSolutionGeneric(s, posI, posJ, core.SolveOptions{})
		if err != nil || !got {
			b.Fatalf("C5 should be 3-colorable: got=%v err=%v", got, err)
		}
		got, _, _, err = core.ExistsSolutionGeneric(s, negI, negJ, core.SolveOptions{})
		if err != nil || got {
			b.Fatalf("K4 should not be 3-colorable: got=%v err=%v", got, err)
		}
	}
}

// BenchmarkDataExchangeContrast (EXP-DE): the same instances under a
// data exchange setting (Σts = ∅, always solvable) and the PDE setting.
func BenchmarkDataExchangeContrast(b *testing.B) {
	pdeS := example1Setting(b)
	deS := example1Setting(b)
	deS.TS = nil
	i, err := pde.ParseInstance("E(a,b). E(b,c).")
	if err != nil {
		b.Fatal(err)
	}
	j := pde.NewInstance()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		de, _, _, err := core.ExistsSolutionGeneric(deS, i, j, core.SolveOptions{})
		if err != nil || !de {
			b.Fatalf("data exchange must be solvable: %v %v", de, err)
		}
		p, _, _, err := core.ExistsSolutionGeneric(pdeS, i, j, core.SolveOptions{})
		if err != nil || p {
			b.Fatalf("PDE should be unsolvable here: %v %v", p, err)
		}
	}
}

// BenchmarkPDMSEquivalence (EXP-PDMS): translating to a PDMS and
// checking consistency of a solution assignment.
func BenchmarkPDMSEquivalence(b *testing.B) {
	s := workload.GenomicSetting()
	p, err := pdms.FromPDE(s)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	i, j := workload.GenomicInstance(30, true, rng)
	sol, _, err := core.FindSolutionTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	local := pdms.PDEDataInstance(s, i, j)
	peers := pdms.PDESolutionAssignment(i, sol)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if !p.Consistent(pdms.DataInstance{Local: local, Peers: peers}, hom.Options{}) {
			b.Fatal("solution not consistent")
		}
	}
}

// BenchmarkMultiPDE (EXP-MULTI): combining and solving a two-peer
// multi-PDE setting.
func BenchmarkMultiPDE(b *testing.B) {
	p1 := example1Setting(b)
	p2, err := pde.ParseSetting(`
setting peer2
source F/2
target H/2
st: F(x,y) -> H(x,y)
`)
	if err != nil {
		b.Fatal(err)
	}
	p2.Target = p1.Target
	m := &core.MultiSetting{Name: "bench", Peers: []*core.Setting{p1, p2}}
	i1, _ := pde.ParseInstance("E(a,b). E(b,c). E(a,c). E(q,r).")
	i2, _ := pde.ParseInstance("F(q,r).")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		combined, err := m.Combine()
		if err != nil {
			b.Fatal(err)
		}
		union, err := m.CombineSources([]*rel.Instance{i1, i2})
		if err != nil {
			b.Fatal(err)
		}
		got, witness, _, err := core.ExistsSolutionGeneric(combined, union, rel.NewInstance(), core.SolveOptions{})
		if err != nil || !got {
			b.Fatalf("got=%v err=%v", got, err)
		}
		ok, err := m.IsSolution([]*rel.Instance{i1, i2}, rel.NewInstance(), witness)
		if err != nil || !ok {
			b.Fatalf("multi-solution check failed: %v %v", ok, err)
		}
	}
}

// BenchmarkCore (EXP-CORE): core computation on an oblivious-chase
// result with redundant nulls.
func BenchmarkCore(b *testing.B) {
	s, err := pde.ParseSetting(`
setting staffing
source Emp/2
target Assigned/2, Manages/2
st: Emp(name, mgr) -> exists team: Assigned(name, team)
st: Emp(name, mgr) -> Manages(mgr, name)
`)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	i := rel.NewInstance()
	for k := 0; k < 30; k++ {
		for m := 0; m < 3; m++ {
			i.Add("Emp", rel.Const(fmt.Sprintf("e%d", k)), rel.Const(fmt.Sprintf("e%d", rng.Intn(30))))
		}
	}
	res, err := chase.Run(i, s.StDeps(), chase.Options{Oblivious: true})
	if err != nil {
		b.Fatal(err)
	}
	bloated := res.Instance.Restrict(s.Target)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c := uni.Core(bloated, hom.Options{})
		if c.NumFacts() >= bloated.NumFacts() {
			b.Fatal("core did not shrink the oblivious chase result")
		}
	}
}

// BenchmarkRepairs (EXP-REPAIR): repair computation on a dirty genomic
// instance.
func BenchmarkRepairs(b *testing.B) {
	s := workload.GenomicSetting()
	rng := rand.New(rand.NewSource(16))
	i, j := workload.GenomicInstance(15, false, rng)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		res, err := repair.Repairs(s, i, j, repair.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Repairs) != 1 || res.Intact {
			b.Fatalf("unexpected repair result: %+v", res)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// BenchmarkAblationParallel (EXP-PAR) compares the serial and parallel
// execution of the Figure 3 algorithm on the two Theorem 4 acceptance
// workloads at growing worker counts. Results are byte-identical across
// the sub-benchmarks; only wall-clock changes. On a single-core host
// the w>1 rows measure the overhead of the worker pool rather than a
// speedup.
func BenchmarkAblationParallel(b *testing.B) {
	type bench struct {
		name string
		s    *core.Setting
		i, j *rel.Instance
	}
	lavI, lavJ := workload.LAVInstance(1600, true, rand.New(rand.NewSource(7)))
	fstI, fstJ := workload.FullSTInstance(400, true, rand.New(rand.NewSource(7)))
	for _, w := range []bench{
		{"lav/n=1600", workload.LAVSetting(), lavI, lavJ},
		{"fullst/n=400", workload.FullSTSetting(), fstI, fstJ},
	} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", w.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for it := 0; it < b.N; it++ {
					ok, _, err := core.ExistsSolutionTractable(w.s, w.i, w.j, core.TractableOptions{Config: par.Config{Parallelism: workers}})
					if err != nil || !ok {
						b.Fatalf("ok=%v err=%v", ok, err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationObliviousChase compares restricted and oblivious
// chase step counts on the chain family.
func BenchmarkAblationObliviousChase(b *testing.B) {
	deps := workload.ChainDeps(3)
	inst := workload.ChainInstance(100)
	for _, oblivious := range []bool{false, true} {
		name := "restricted"
		if oblivious {
			name = "oblivious"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				if _, err := chase.Run(inst, deps, chase.Options{Oblivious: oblivious}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChaseDeepRecursion: the deep-recursion scaling series.
// DeepChainDeps lists the chain tgds deepest first, so each round fills
// exactly one layer and the chase takes depth+1 rounds; the semi-naive
// chase skips unchanged layers via their watermarks and touches each
// layer's facts O(1) times, where a naive chase would re-enumerate
// every filled layer's body every round — Θ(depth²·n) tuple work.
func BenchmarkChaseDeepRecursion(b *testing.B) {
	for _, depth := range []int{4, 8, 16} {
		deps := workload.DeepChainDeps(depth)
		inst := workload.ChainInstance(200)
		b.Run(fmt.Sprintf("depth=%d/n=200/delta", depth), func(b *testing.B) {
			b.ReportAllocs()
			var steps int
			for it := 0; it < b.N; it++ {
				res, err := chase.Run(inst, deps, chase.Options{})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			if want := depth * 200; steps != want {
				b.Fatalf("chase fired %d steps, want %d", steps, want)
			}
		})
	}
}

// BenchmarkChaseEgdMerge (EXP-UF): egd-merge scaling on the keyed LAV
// workload, where every person contributes exactly one key-egd merge.
// The union-find engine rewrites only the tuples that mention a merged
// value and keeps every watermark valid, so total work stays
// near-linear across the n merges.
func BenchmarkChaseEgdMerge(b *testing.B) {
	s := workload.KeyedLAVSetting()
	deps := append(append([]dep.Dependency{}, s.StDeps()...), s.T...)
	for _, n := range []int{100, 400, 1600} {
		i, j := workload.KeyedLAVInstance(n)
		start := rel.Union(i, j)
		b.Run(fmt.Sprintf("keyedlav/n=%d/uf", n), func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				res, err := chase.Run(start, deps, chase.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed || res.Merges != n {
					b.Fatalf("failed=%v merges=%d want %d", res.Failed, res.Merges, n)
				}
			}
		})
	}
}

// BenchmarkChaseKeyedResume (EXP-UF): warm append on a keyed setting.
// The cold path re-chases the enlarged start from scratch; the warm
// path resumes from the retained fixpoint + union-find, canonicalizes
// the appended facts through the merge classes, and only chases the
// delta. Before the union-find engine, any egd-bearing setting forced
// the cold path.
func BenchmarkChaseKeyedResume(b *testing.B) {
	s := workload.KeyedLAVSetting()
	deps := append(append([]dep.Dependency{}, s.StDeps()...), s.T...)
	const n, k = 1600, 16
	i, j := workload.KeyedLAVInstance(n)
	start := rel.Union(i, j)
	prev, err := chase.Run(start, deps, chase.Options{})
	if err != nil || prev.Failed {
		b.Fatalf("base chase: failed=%v err=%v", prev != nil && prev.Failed, err)
	}
	delta := workload.KeyedLAVAppend(n, k)
	b.Run(fmt.Sprintf("keyedlav/n=%d/k=%d/warm", n, k), func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			res, resumed, err := chase.Resume(prev, deps, delta, chase.Options{})
			if err != nil || !resumed || res.Failed {
				b.Fatalf("resumed=%v failed=%v err=%v", resumed, res != nil && res.Failed, err)
			}
		}
	})
	cold := rel.Union(start, delta)
	b.Run(fmt.Sprintf("keyedlav/n=%d/k=%d/cold", n, k), func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			res, err := chase.Run(cold, deps, chase.Options{})
			if err != nil || res.Failed {
				b.Fatalf("failed=%v err=%v", res != nil && res.Failed, err)
			}
		}
	})
}
