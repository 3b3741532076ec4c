package main

// The -json flag turns pdxbench into a machine-readable perf probe: a
// fixed suite of benchmark records (the hot paths the experiments
// exercise, measured via testing.Benchmark) is written as JSON so CI
// and future PRs can diff ns/op, allocs/op, step counts, and search
// nodes against the committed BENCH_PR<k>.json trajectory files.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/qplan"
	"repro/internal/reductions"
	"repro/internal/rel"
	"repro/internal/snap"
	"repro/internal/workload"
	"repro/pde"
)

type benchRecord struct {
	// Name is "<workload>/<variant>", stable across PRs.
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Steps is the chase step count of one operation (0 when the
	// benchmark is not a chase).
	Steps int `json:"steps,omitempty"`
	// Nodes is the generic-solver search-node count of one operation
	// (0 when the benchmark does not search).
	Nodes int64 `json:"nodes,omitempty"`
	// Merges and Finds are the union-find egd-engine counters of one
	// operation (0 when the benchmark fires no egds).
	Merges int `json:"merges,omitempty"`
	Finds  int `json:"finds,omitempty"`
}

type benchReport struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// record runs fn under testing.Benchmark and packages the result. fn
// reports domain metrics (steps, nodes) for a single operation through
// the returned pointers, which record reads after the timed runs.
func record(name string, steps *int, nodes *int64, fn func(b *testing.B)) benchRecord {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	rec := benchRecord{
		Name:        name,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	if steps != nil {
		rec.Steps = *steps
	}
	if nodes != nil {
		rec.Nodes = *nodes
	}
	return rec
}

// jsonBenchSuite runs the perf-trajectory suite. Record names keep the
// "/delta" and "/uf" suffixes of the engine variants they were first
// recorded under, so they stay comparable with older baselines.
func jsonBenchSuite() (*benchReport, error) {
	rep := &benchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	// Theorem 4 LAV acceptance at the headline size.
	lavI, lavJ := workload.LAVInstance(1600, true, rand.New(rand.NewSource(7)))
	var lavSteps int
	rep.Benchmarks = append(rep.Benchmarks, record("tractable-lav/n=1600/delta", &lavSteps, nil, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok, trace, err := core.ExistsSolutionTractable(workload.LAVSetting(), lavI, lavJ, core.TractableOptions{})
			if err != nil || !ok {
				b.Fatalf("lav n=1600 rejected: ok=%v err=%v", ok, err)
			}
			lavSteps = trace.StepsST + trace.StepsTS
		}
	}))

	// Chase-only slice of the same LAV run (Σst chase, restrict, Σts
	// chase) — the acceptance number for the semi-naive rewrite,
	// isolated from I_can block analysis and homomorphism checking.
	{
		s := workload.LAVSetting()
		start := rel.Union(lavI, lavJ)
		var steps int
		rep.Benchmarks = append(rep.Benchmarks, record("lav-chase/n=1600/delta", &steps, nil, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				res, err := chase.Run(start, s.StDeps(), chase.Options{})
				if err != nil || res.Failed {
					b.Fatalf("lav Σst chase failed: %v", err)
				}
				jcan := res.Instance.Restrict(s.Target)
				res2, err := chase.Run(jcan, s.TsDeps(), chase.Options{})
				if err != nil || res2.Failed {
					b.Fatalf("lav Σts chase failed: %v", err)
				}
				steps = res.Steps + res2.Steps
			}
		}))
		if steps != lavSteps {
			return nil, fmt.Errorf("lav-chase fired %d steps, tractable-lav %d", steps, lavSteps)
		}
	}

	// Warm-path slice of the serving cache: the verdict phase alone,
	// running against a precomputed canonical-instance trace the way
	// pdxd answers a repeat /v1/exists-solution. The gap between this
	// and tractable-lav/n=1600/delta is what the cache saves per hit.
	{
		s := workload.LAVSetting()
		trace, err := core.ChaseCanonicalTractable(s, lavI, lavJ, core.TractableOptions{})
		if err != nil {
			return nil, fmt.Errorf("lav warm trace: %w", err)
		}
		rec := record("tractable-lav/n=1600/warm", nil, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, _, err := core.ExistsSolutionTractableFrom(lavI, trace, core.TractableOptions{})
				if err != nil || !ok {
					b.Fatalf("lav warm verdict: ok=%v err=%v", ok, err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)

		// Incremental re-chase of a 16-fact append against the same
		// trace — the migration cost pdxd pays per cache entry on
		// /v1/instances/{id}/append, versus re-chasing 1600 facts.
		delta := rel.NewInstance()
		for k := 0; k < 16; k++ {
			delta.Add("Person", rel.Const(fmt.Sprintf("newp%d", k)), rel.Const(fmt.Sprintf("newg%d", k%4)))
		}
		var steps int
		rec = record("lav-resume/n=1600/append=16", &steps, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				next, resumed, _, err := core.ResumeCanonicalTractable(s, trace, delta, core.TractableOptions{})
				if err != nil || !resumed {
					b.Fatalf("lav resume: resumed=%v err=%v", resumed, err)
				}
				steps = next.StepsST + next.StepsTS
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)

		// Snapshot codec over the same warm trace: the encode is what the
		// write-behind worker pays per cache fill, the decode (which
		// revalidates the whole body and rebuilds the block
		// decomposition) is the per-entry warm-start price.
		se := &snap.Entry{
			SettingID:  "sha256:bench-setting",
			SourceID:   "sha256:bench-source",
			TargetID:   "sha256:bench-target",
			Kind:       snap.KindTractable,
			SourceText: pde.FormatInstance(lavI),
			TargetText: pde.FormatInstance(lavJ),
			Tractable:  trace,
		}
		data, err := snap.Encode(se)
		if err != nil {
			return nil, fmt.Errorf("snapshot encode: %w", err)
		}
		rec = record("snapshot-save/n=1600", nil, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := snap.Encode(se); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)
		rec = record("snapshot-load/n=1600", nil, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := snap.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}

	// Certain answers on the LAV workload: the warm chase-backed path
	// (canonical artifact precomputed, the way pdxd answered repeats
	// before plan compilation) versus the compiled plan that skips the
	// chase entirely. Open queries whose certain answers are non-empty
	// are out of reach for the enumeration path at this size (the
	// intersection never empties, so it must walk adom^nulls image
	// solutions), so the head-to-head record is a Boolean point query
	// falsified by the first image solution — the warm path's best
	// case. Results must agree exactly.
	{
		s := workload.LAVSetting()
		qb := certain.UCQ{{Name: "qb", Body: []dep.Atom{
			dep.NewAtom("Rec", dep.Cst("p0"), dep.Cst("g-none"), dep.Var("u"))}}}
		ct, err := core.ChaseCanonicalTarget(s, lavI, lavJ, core.SolveOptions{})
		if err != nil {
			return nil, fmt.Errorf("lav certain artifact: %w", err)
		}
		var warm, compiled certain.Result
		rec := record("certain-warm/n=1600", nil, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := certain.Boolean(s, lavI, lavJ, qb, certain.Options{Canonical: ct})
				if err != nil {
					b.Fatal(err)
				}
				warm = res
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)
		if warm.Certain || !warm.SolutionExists || warm.SolutionsExamined != 1 {
			return nil, fmt.Errorf("certain-warm did not falsify on the first solution: %+v", warm)
		}

		plan, err := qplan.Compile(s, qb)
		if err != nil {
			return nil, fmt.Errorf("lav certain compile: %w", err)
		}
		rec = record("certain-compiled/n=1600", nil, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := plan.Eval(lavI, lavJ, qplan.EvalOptions{})
				if err != nil {
					b.Fatal(err)
				}
				compiled = res
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)
		if compiled.Certain != warm.Certain || compiled.SolutionExists != warm.SolutionExists {
			return nil, fmt.Errorf("certain paths diverged: warm %+v, compiled %+v", warm, compiled)
		}

		// Batch serving slice: 256 open point queries answered from
		// cached plans — the solution probes run once, then each query
		// is one indexed scan. This is the per-request work of
		// /v1/certain-answers/batch after the plan cache warms. The
		// enumeration path cannot cross-check these at this size, so
		// the answers are verified against the generator's ground
		// truth (each person's group in the source instance).
		sp, err := qplan.CompileSetting(s)
		if err != nil {
			return nil, fmt.Errorf("lav setting plan: %w", err)
		}
		const nq = 256
		plans := make([]*qplan.Plan, nq)
		persons := make([]string, nq)
		for k := 0; k < nq; k++ {
			persons[k] = fmt.Sprintf("p%d", k*5+1)
			q := certain.UCQ{{
				Name: fmt.Sprintf("q%d", k),
				Head: []string{"g"},
				Body: []dep.Atom{dep.NewAtom("Rec",
					dep.Cst(persons[k]), dep.Var("g"), dep.Var("u"))},
			}}
			if plans[k], err = sp.CompileQuery(q); err != nil {
				return nil, fmt.Errorf("batch query %d: %w", k, err)
			}
		}
		results := make([]certain.Result, nq)
		rec = record("certain-batch/n=1600/q=256", nil, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex, err := sp.SolutionExists(lavI, lavJ, qplan.EvalOptions{})
				if err != nil || !ex {
					b.Fatalf("batch probes: ex=%v err=%v", ex, err)
				}
				for k := range plans {
					if results[k], err = plans[k].EvalGiven(ex, lavI, lavJ, qplan.EvalOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)
		groups := map[string]string{}
		for _, t := range lavI.Relation("Person").Tuples() {
			groups[t[0].ConstText()] = t[1].ConstText()
		}
		for k := range results {
			if len(results[k].Answers) != 1 || results[k].Answers[0][0].ConstText() != groups[persons[k]] {
				return nil, fmt.Errorf("batch query %d: got %v, want group %q of %s",
					k, results[k].Answers, groups[persons[k]], persons[k])
			}
		}
	}

	// Deep recursion: one tgd layer per round, where naive trigger
	// collection would be quadratic in depth.
	for _, depth := range []int{8, 16} {
		deps := workload.DeepChainDeps(depth)
		inst := workload.ChainInstance(200)
		var steps int
		rep.Benchmarks = append(rep.Benchmarks, record(fmt.Sprintf("deep-chain/depth=%d/delta", depth), &steps, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := chase.Run(inst, deps, chase.Options{})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
		}))
		if want := depth * 200; steps != want {
			return nil, fmt.Errorf("deep-chain depth=%d fired %d steps, want %d", depth, steps, want)
		}
	}

	// Oblivious chase (fired-key dedup hot path) on the chain workload.
	{
		deps := workload.ChainDeps(3)
		inst := workload.ChainInstance(100)
		var steps int
		rep.Benchmarks = append(rep.Benchmarks, record("oblivious-chain/depth=3/n=100/delta", &steps, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := chase.Run(inst, deps, chase.Options{Oblivious: true})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
		}))
	}

	// Union-find egd engine on the keyed LAV workload (EXP-UF): every
	// person contributes one key-egd merge, so merge cost dominates.
	{
		s := workload.KeyedLAVSetting()
		deps := append(append([]dep.Dependency{}, s.StDeps()...), s.T...)
		keyedI, keyedJ := workload.KeyedLAVInstance(400)
		start := rel.Union(keyedI, keyedJ)
		var steps, merges, finds int
		rec := record("keyed-chase/n=400/uf", &steps, nil, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				res, err := chase.Run(start, deps, chase.Options{})
				if err != nil || res.Failed {
					b.Fatalf("keyed chase failed=%v err=%v", res != nil && res.Failed, err)
				}
				steps, merges, finds = res.Steps, res.Merges, res.Finds
			}
		})
		rec.Merges, rec.Finds = merges, finds
		rep.Benchmarks = append(rep.Benchmarks, rec)
		if merges != 400 {
			return nil, fmt.Errorf("keyed-chase applied %d merges, want one per person (400)", merges)
		}

		// Warm keyed append: chase.Resume from the retained fixpoint +
		// union-find versus the keyed-chase cold numbers above. Before
		// the union-find engine this path always fell back.
		prev, err := chase.Run(start, deps, chase.Options{})
		if err != nil || prev.Failed {
			return nil, fmt.Errorf("keyed resume base chase: failed=%v err=%v", prev != nil && prev.Failed, err)
		}
		delta := workload.KeyedLAVAppend(400, 16)
		rec = record("keyed-resume/n=400/append=16", &steps, nil, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				res, resumed, err := chase.Resume(prev, deps, delta, chase.Options{})
				if err != nil || !resumed || res.Failed {
					b.Fatalf("keyed resume: resumed=%v err=%v", resumed, err)
				}
				steps, merges, finds = res.Steps, res.Merges, res.Finds
			}
		})
		rec.Merges, rec.Finds = merges, finds
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}

	// Cluster routing: the per-request placement lookup every sharded
	// pdxd pays to decide owner-vs-proxy, and the liveness flip that
	// rebuilds the placement on a ring change. The failover record's
	// Nodes field pins the relocation volume when one of three shards
	// dies — the fleet's handoff bill, which consistent hashing bounds
	// near 1/N. Keys that stay with a surviving owner must not move at
	// all, or the probe fails.
	{
		members := []string{
			"http://10.0.0.1:8642", "http://10.0.0.2:8642", "http://10.0.0.3:8642",
		}
		ring, err := cluster.New(members[0], members[1:], 0)
		if err != nil {
			return nil, fmt.Errorf("cluster ring: %w", err)
		}
		for _, m := range members[1:] {
			ring.SetAlive(m, true)
		}
		keys := workload.ClusterKeys(4096)
		before := make([]string, len(keys))
		for i, k := range keys {
			before[i] = ring.Owner(k)
		}
		var sink string
		rec := record("cluster-ring/shards=3/owner-lookup", nil, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = ring.Owner(keys[i%len(keys)])
			}
		})
		_ = sink
		rep.Benchmarks = append(rep.Benchmarks, rec)

		ring.SetAlive(members[2], false)
		var moved int64
		for i, k := range keys {
			after := ring.Owner(k)
			if after == before[i] {
				continue
			}
			if before[i] != members[2] {
				return nil, fmt.Errorf("cluster-ring: key with a surviving owner relocated on failover")
			}
			moved++
		}
		ring.SetAlive(members[2], true)
		rec = record("cluster-ring/shards=3/failover-rebuild", nil, &moved, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ring.SetAlive(members[2], false)
				ring.SetAlive(members[2], true)
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)
		if lo, hi := int64(len(keys)/6), int64(len(keys)/2); moved < lo || moved > hi {
			return nil, fmt.Errorf("cluster-ring: failover relocated %d of %d keys, want near 1/3", moved, len(keys))
		}
	}

	// Generic solver on the Theorem 3 clique reduction: tracks search
	// nodes, the cost driver outside C_tract.
	{
		g := graph.Complete(4)
		i, j := reductions.CliqueInstance(g, 4)
		s := reductions.CliqueSetting()
		var nodes int64
		rec := record("clique/k=4/generic", nil, &nodes, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				ok, _, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 100_000_000})
				if err != nil || !ok {
					b.Fatalf("clique k=4 rejected: ok=%v err=%v", ok, err)
				}
				nodes = stats.Nodes
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}

	// Parallel tractable run at the headline size: the speculation path
	// over delta collections.
	{
		var steps int
		rec := record("tractable-lav/n=1600/delta-par4", &steps, nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, trace, err := core.ExistsSolutionTractable(workload.LAVSetting(), lavI, lavJ,
					core.TractableOptions{Config: par.Config{Parallelism: 4}})
				if err != nil || !ok {
					b.Fatalf("lav n=1600 parallel rejected: ok=%v err=%v", ok, err)
				}
				steps = trace.StepsST + trace.StepsTS
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, rec)
		if steps != lavSteps {
			return nil, fmt.Errorf("lav parallel step count diverged: serial %d, par4 %d", lavSteps, steps)
		}
	}

	return rep, nil
}

// writeJSONReport runs the suite and writes the report to path.
func writeJSONReport(path string) error {
	rep, err := jsonBenchSuite()
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}
