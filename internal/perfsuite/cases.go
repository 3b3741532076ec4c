package perfsuite

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/depparse"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/qplan"
	"repro/internal/reductions"
	"repro/internal/rel"
	"repro/internal/snap"
	"repro/internal/workload"
)

// Cases returns the registry. Names keep the "/delta" and "/uf"
// suffixes of the engine variants they were first recorded under, so
// they stay comparable with older baselines.
func Cases() []Case {
	var cs []Case
	// Theorem 4 (EXP-T4-LAV, EXP-T4-FULL): the Figure 3 algorithm on the
	// two C_tract families, near-linear in n. EXP-PAR pins the headline
	// sizes to 1, 2 and 4 workers: results are identical, and on one
	// core the w>1 rows measure the worker pool's overhead.
	for _, n := range []int{100, 400, 1600} {
		cs = append(cs, tractable("lav", n, 0))
	}
	for _, n := range []int{50, 100, 200, 400} {
		cs = append(cs, tractable("fullst", n, 0))
	}
	for _, w := range []int{1, 2, 4} {
		cs = append(cs, tractable("lav", 1600, w), tractable("fullst", 400, w))
	}
	cs = append(cs,
		Case{"lav-chase/n=1600/delta", lavChase},
		cacheHit("tractable-lav/n=1600/warm", false),
		cacheHit("lav-resume/n=1600/append=16", true),
		snapshotCase("snapshot-save/n=1600", false),
		snapshotCase("snapshot-load/n=1600", true),
		certainCase("certain-warm/n=1600", false),
		certainCase("certain-compiled/n=1600", true),
		Case{"certain-batch/n=1600/q=256", certainBatch},
	)
	// EXP-DELTA: DeepChainDeps fills one layer per round, where naive
	// trigger collection would be quadratic in depth.
	for _, depth := range []int{4, 8, 16} {
		cs = append(cs, chainCase(fmt.Sprintf("deep-chain/depth=%d/delta", depth), workload.DeepChainDeps(depth), 200, false))
	}
	// Restricted vs oblivious (fired-key dedup hot path) on the chain
	// family, where no trigger is ever pre-satisfied.
	cs = append(cs,
		chainCase("restricted-chain/depth=3/n=100/delta", workload.ChainDeps(3), 100, false),
		chainCase("oblivious-chain/depth=3/n=100/delta", workload.ChainDeps(3), 100, true))
	// EXP-UF: on the keyed LAV workload every person contributes one
	// key-egd merge, so merge cost dominates.
	for _, n := range []int{100, 400, 1600} {
		cs = append(cs, keyedChase(n, 0))
	}
	return append(cs,
		keyedResume(400, 16),
		keyedResume(1600, 16),
		keyedChase(1600, 16),
		Case{"cluster-ring/shards=3/owner-lookup", ownerLookup},
		Case{"cluster-ring/shards=3/failover-rebuild", failoverRebuild},
		Case{"clique/k=4/generic", cliqueGeneric},
	)
}

// acceptance returns the solvable seed-7 instance of size n of the LAV
// or the full-Σst Theorem 4 family, with its setting.
func acceptance(family string, n int) (*core.Setting, *rel.Instance, *rel.Instance) {
	rng := rand.New(rand.NewSource(7))
	if family == "fullst" {
		i, j := workload.FullSTInstance(n, true, rng)
		return workload.FullSTSetting(), i, j
	}
	i, j := workload.LAVInstance(n, true, rng)
	return workload.LAVSetting(), i, j
}

// tractable times ExistsSolutionTractable. With workers > 0 the run is
// pinned to that many workers and must fire the default run's steps.
func tractable(family string, n, workers int) Case {
	name := fmt.Sprintf("tractable-%s/n=%d/delta", family, n)
	if workers > 0 {
		name += fmt.Sprintf("-par%d", workers)
	}
	return Case{name, func() (Op, error) {
		s, i, j := acceptance(family, n)
		want, err := solveTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			return nil, err
		}
		opts := core.TractableOptions{Config: par.Config{Parallelism: workers}}
		return func() (Counters, error) {
			c, err := solveTractable(s, i, j, opts)
			if err == nil && c != want {
				err = fmt.Errorf("fired %d steps, the default run %d", c.Steps, want.Steps)
			}
			return c, err
		}, nil
	}}
}

func solveTractable(s *core.Setting, i, j *rel.Instance, opts core.TractableOptions) (Counters, error) {
	ok, trace, err := core.ExistsSolutionTractable(s, i, j, opts)
	if err == nil && !ok {
		err = errors.New("solvable instance rejected")
	}
	if err != nil {
		return Counters{}, err
	}
	return Counters{Steps: trace.StepsST + trace.StepsTS}, nil
}

// lavChase is the chase-only slice of tractable-lav/n=1600/delta (Σst
// chase, restrict, Σts chase), without block analysis and homomorphism
// checks; it must fire the same steps.
func lavChase() (Op, error) {
	s, i, j := acceptance("lav", 1600)
	want, err := solveTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		return nil, err
	}
	start, st, ts := rel.Union(i, j), s.StDeps(), s.TsDeps()
	return func() (Counters, error) {
		res, err := chase.Run(start, st, chase.Options{})
		if err != nil {
			return Counters{}, err
		}
		res2, err := chase.Run(res.Instance.Restrict(s.Target), ts, chase.Options{})
		if err != nil {
			return Counters{}, err
		}
		c := Counters{Steps: res.Steps + res2.Steps}
		if res.Failed || res2.Failed || c != want {
			err = fmt.Errorf("failed=%v/%v, fired %d steps, tractable-lav %d", res.Failed, res2.Failed, c.Steps, want.Steps)
		}
		return c, err
	}, nil
}

// lavTrace is the LAV(1600) pair's canonical-instance trace.
func lavTrace() (*core.Setting, *rel.Instance, *rel.Instance, *core.TractableTrace, error) {
	s, i, j := acceptance("lav", 1600)
	trace, err := core.ChaseCanonicalTractable(s, i, j, core.TractableOptions{})
	return s, i, j, trace, err
}

// cacheHit runs on the trace pdxd's chase cache holds for the pair: the
// verdict phase alone, as for a repeat /v1/exists-solution (the gap to
// tractable-lav/n=1600/delta is what a hit saves), or with resume the
// re-chase of a 16-person append, the migration pdxd runs per entry on
// /v1/instances/{id}/append.
func cacheHit(name string, resume bool) Case {
	return Case{name, func() (Op, error) {
		s, i, _, trace, err := lavTrace()
		if err != nil {
			return nil, err
		}
		delta := workload.LAVAppend(16)
		return func() (Counters, error) {
			if resume {
				next, resumed, _, err := core.ResumeCanonicalTractable(s, trace, delta, core.TractableOptions{})
				if err != nil || !resumed {
					return Counters{}, fmt.Errorf("resumed=%v err=%v", resumed, err)
				}
				return Counters{Steps: next.StepsST + next.StepsTS}, nil
			}
			ok, _, err := core.ExistsSolutionTractableFrom(i, trace, core.TractableOptions{})
			if err == nil && !ok {
				err = errors.New("warm verdict rejected a solvable instance")
			}
			return Counters{}, err
		}, nil
	}}
}

// snapshotCase times the snapshot codec on the cached trace: encoding is
// the write-behind worker's price per cache fill, decoding (which
// revalidates the body and rebuilds the blocks) the per-entry
// warm-start price.
func snapshotCase(name string, decode bool) Case {
	return Case{name, func() (Op, error) {
		_, i, j, trace, err := lavTrace()
		if err != nil {
			return nil, err
		}
		se := &snap.Entry{
			SettingID:  "sha256:bench-setting",
			SourceID:   "sha256:bench-source",
			TargetID:   "sha256:bench-target",
			Kind:       snap.KindTractable,
			SourceText: depparse.FormatInstance(i),
			TargetText: depparse.FormatInstance(j),
			Tractable:  trace,
		}
		data, err := snap.Encode(se)
		if err != nil {
			return nil, err
		}
		return func() (Counters, error) {
			if decode {
				_, err := snap.Decode(data)
				return Counters{}, err
			}
			_, err := snap.Encode(se)
			return Counters{}, err
		}, nil
	}}
}

// certainCase answers a Boolean point query over LAV(1600) on the
// chase-backed path with the canonical target precomputed (the way pdxd
// answered repeats before plan compilation) or, when compiled, from its
// plan, which skips the chase. The first image solution falsifies the
// query — the enumeration's best case; open queries with non-empty
// answers are out of its reach at this size — and both paths must agree.
func certainCase(name string, compiled bool) Case {
	return Case{name, func() (Op, error) {
		s, i, j := acceptance("lav", 1600)
		q := certain.UCQ{{Name: "qb", Body: []dep.Atom{
			dep.NewAtom("Rec", dep.Cst("p0"), dep.Cst("g-none"), dep.Var("u"))}}}
		ct, err := core.ChaseCanonicalTarget(s, i, j, core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		eval := func() (certain.Result, error) {
			return certain.Boolean(s, i, j, q, certain.Options{Canonical: ct})
		}
		warm, err := eval()
		if err == nil && (warm.Certain || !warm.SolutionExists || warm.SolutionsExamined != 1) {
			err = fmt.Errorf("warm path not falsified by the first solution: %+v", warm)
		}
		if err != nil {
			return nil, err
		}
		if compiled {
			plan, err := qplan.Compile(s, q)
			if err != nil {
				return nil, err
			}
			eval = func() (certain.Result, error) { return plan.Eval(i, j, qplan.EvalOptions{}) }
		}
		return func() (Counters, error) {
			res, err := eval()
			if err == nil && (res.Certain != warm.Certain || res.SolutionExists != warm.SolutionExists ||
				!compiled && res.SolutionsExamined != warm.SolutionsExamined) {
				err = fmt.Errorf("diverged from the warm path: got %+v, want %+v", res, warm)
			}
			return Counters{}, err
		}, nil
	}}
}

// certainBatch answers 256 open point queries from cached plans: the
// solution probes run once, then each query is one indexed scan — the
// work of /v1/certain-answers/batch once the plan cache is warm. Each
// answer must be the person's group in the source instance.
func certainBatch() (Op, error) {
	s, i, j := acceptance("lav", 1600)
	sp, err := qplan.CompileSetting(s)
	if err != nil {
		return nil, err
	}
	groups := map[string]string{}
	for _, t := range i.Relation("Person").Tuples() {
		groups[t[0].ConstText()] = t[1].ConstText()
	}
	plans := make([]*qplan.Plan, 256)
	want := make([]string, len(plans))
	for k := range plans {
		person := fmt.Sprintf("p%d", k*5+1)
		want[k] = groups[person]
		q := certain.UCQ{{Name: fmt.Sprintf("q%d", k), Head: []string{"g"},
			Body: []dep.Atom{dep.NewAtom("Rec", dep.Cst(person), dep.Var("g"), dep.Var("u"))}}}
		if plans[k], err = sp.CompileQuery(q); err != nil {
			return nil, err
		}
	}
	return func() (Counters, error) {
		ex, err := sp.SolutionExists(i, j, qplan.EvalOptions{})
		if err != nil || !ex {
			return Counters{}, fmt.Errorf("solution probes: exists=%v err=%v", ex, err)
		}
		for k, p := range plans {
			res, err := p.EvalGiven(ex, i, j, qplan.EvalOptions{})
			if err != nil {
				return Counters{}, err
			}
			if len(res.Answers) != 1 || res.Answers[0][0].ConstText() != want[k] {
				return Counters{}, fmt.Errorf("query %d: got %v, want group %q", k, res.Answers, want[k])
			}
		}
		return Counters{}, nil
	}, nil
}

// chainCase times the chase of deps, len(deps) tgd layers, over
// ChainInstance(n): exactly len(deps)·n steps.
func chainCase(name string, deps []dep.Dependency, n int, oblivious bool) Case {
	return Case{name, func() (Op, error) {
		inst := workload.ChainInstance(n)
		return func() (Counters, error) {
			res, err := chase.Run(inst, deps, chase.Options{Oblivious: oblivious})
			if err != nil {
				return Counters{}, err
			}
			if res.Steps != len(deps)*n {
				err = fmt.Errorf("fired %d steps, want %d", res.Steps, len(deps)*n)
			}
			return Counters{Steps: res.Steps}, err
		}, nil
	}}
}

// keyedCounters checks a keyed chase result — no error, no failure,
// exactly the given number of merges — and returns its counters.
func keyedCounters(res *chase.Result, err error, merges int) (Counters, error) {
	if err != nil || res.Failed {
		return Counters{}, fmt.Errorf("failed=%v err=%v", err == nil && res.Failed, err)
	}
	c := Counters{Steps: res.Steps, Merges: res.Merges, Finds: res.Finds}
	if c.Merges != merges {
		err = fmt.Errorf("applied %d merges, want %d", c.Merges, merges)
	}
	return c, err
}

// keyedChase times the chase of KeyedLAVInstance(n), one merge per
// person. With k > 0 the start also holds a k-person KeyedLAVAppend:
// keyedResume's cold path, which the append's draft-free persons leave
// at n merges.
func keyedChase(n, k int) Case {
	name := fmt.Sprintf("keyed-chase/n=%d/uf", n)
	if k > 0 {
		name = fmt.Sprintf("keyed-rechase/n=%d/append=%d", n, k)
	}
	return Case{name, func() (Op, error) {
		deps, start := workload.KeyedLAVDeps(), rel.Union(workload.KeyedLAVInstance(n))
		if k > 0 {
			start = rel.Union(start, workload.KeyedLAVAppend(n, k))
		}
		return func() (Counters, error) {
			res, err := chase.Run(start, deps, chase.Options{})
			return keyedCounters(res, err, n)
		}, nil
	}}
}

// keyedResume times a warm k-person append: chase.Resume from the
// retained fixpoint and union-find canonicalizes the new facts through
// the merge classes and chases only the delta, with no new merge.
func keyedResume(n, k int) Case {
	return Case{fmt.Sprintf("keyed-resume/n=%d/append=%d", n, k), func() (Op, error) {
		deps := workload.KeyedLAVDeps()
		prev, err := chase.Run(rel.Union(workload.KeyedLAVInstance(n)), deps, chase.Options{})
		if _, err := keyedCounters(prev, err, n); err != nil {
			return nil, err
		}
		delta := workload.KeyedLAVAppend(n, k)
		return func() (Counters, error) {
			res, resumed, err := chase.Resume(prev, deps, delta, chase.Options{})
			if err == nil && !resumed {
				err = errors.New("resume fell back to a full re-chase")
			}
			return keyedCounters(res, err, 0)
		}, nil
	}}
}

// ringMembers are the three shards of the cluster-ring cases.
var ringMembers = []string{"http://10.0.0.1:8642", "http://10.0.0.2:8642", "http://10.0.0.3:8642"}

// liveRing is the first shard's view of ringMembers, all alive, and the
// placement keys of a serving fleet.
func liveRing() (*cluster.Ring, []string, error) {
	ring, err := cluster.New(ringMembers[0], ringMembers[1:], 0)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range ringMembers[1:] {
		ring.SetAlive(m, true)
	}
	return ring, workload.ClusterKeys(4096), nil
}

// ownerLookup is the placement lookup every sharded pdxd request pays
// to decide owner-vs-proxy.
func ownerLookup() (Op, error) {
	ring, keys, err := liveRing()
	if err != nil {
		return nil, err
	}
	next := 0
	return func() (Counters, error) {
		ring.Owner(keys[next%len(keys)])
		next++
		return Counters{}, nil
	}, nil
}

// failoverRebuild is the placement rebuild when one of three shards dies
// and comes back. Nodes pins the keys the failover relocates — the
// handoff bill, which consistent hashing bounds near 1/3 — and keys
// whose owner survives must not move.
func failoverRebuild() (Op, error) {
	ring, keys, err := liveRing()
	if err != nil {
		return nil, err
	}
	dead := ringMembers[2]
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = ring.Owner(k)
	}
	ring.SetAlive(dead, false)
	var moved int64
	for i, k := range keys {
		if ring.Owner(k) == before[i] {
			continue
		}
		if before[i] != dead {
			return nil, errors.New("a key with a surviving owner relocated on failover")
		}
		moved++
	}
	ring.SetAlive(dead, true)
	if lo, hi := int64(len(keys)/6), int64(len(keys)/2); moved < lo || moved > hi {
		return nil, fmt.Errorf("failover relocated %d of %d keys, want near 1/3", moved, len(keys))
	}
	return func() (Counters, error) {
		ring.SetAlive(dead, false)
		ring.SetAlive(dead, true)
		return Counters{Nodes: moved}, nil
	}, nil
}

// cliqueGeneric runs the generic solver on the Theorem 3 reduction of
// K4 with k=4; outside C_tract the search nodes dominate the cost.
func cliqueGeneric() (Op, error) {
	s := reductions.CliqueSetting()
	i, j := reductions.CliqueInstance(graph.Complete(4), 4)
	return func() (Counters, error) {
		ok, _, stats, err := core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 100_000_000})
		if err == nil && !ok {
			err = errors.New("K4 has a 4-clique but SOL rejected it")
		}
		if err != nil {
			return Counters{}, err
		}
		return Counters{Nodes: stats.Nodes}, nil
	}, nil
}
