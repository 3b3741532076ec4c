package pde

// The shared solve pipeline. SolveFrom and CertainFrom encode the
// paper's decision rules once: the Figure 3 algorithm for C_tract
// settings and the complete search otherwise (Theorems 3–5), and the
// certain answers of Definition 4 through a compiled plan or by
// enumerating image solutions. They read chased state through the
// Artifacts seam: the façade entry points chase on demand (chaser),
// pdxd reads its chase cache, single-flight and plan cache. Neither
// function validates or classifies; the callers did that once.

import (
	"context"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/qplan"
)

// Artifacts supplies the chased state of one instance pair (I, J) to
// SolveFrom and CertainFrom. Each method is called at most once per
// dispatch call, and only when the dispatch needs its result.
type Artifacts interface {
	// Tractable returns the Figure 3 trace of (I, J): both chase phases
	// and the block decomposition of I_can.
	Tractable(ctx context.Context) (*TractableTrace, error)
	// Verdict decides SOL(P) for (I, J) by the Figure 3 block checks of
	// I_can against I (ExistsSolutionTractableFrom over the Tractable
	// trace); it is only asked of C_tract settings. The verdict is a
	// fixed property of the pair, so an implementation may remember
	// it: pdxd keeps it on the chase-cache entry of the trace, while
	// the façade computes it afresh. With cachedOnly set, Verdict must
	// not chase: when no trace is at hand it reports known == false
	// and the caller decides SOL(P) some other way.
	Verdict(ctx context.Context, cachedOnly bool) (exists, known bool, err error)
	// Canonical returns the canonical target of (I, J).
	Canonical(ctx context.Context) (*CanonicalTarget, error)
	// Plan returns the compiled plan of q, or an error whose
	// CompiledFallbackReason names why the compiled path declines. ctx
	// bounds a wait on another request compiling the same plan.
	Plan(ctx context.Context, q UCQ) (*Plan, error)
}

// SolveFrom decides SOL(P) for (I, J) with the given strategy over the
// chased state a supplies. The setting must be valid, I and J must fit
// its schemas, and StrategyTractable requires a C_tract setting; the
// strategy is the caller's classification (ForceGeneric in o is not
// consulted). With witness set, a tractable run also builds the witness
// solution J_img; the generic solver always returns its witness. I and J
// are cloned, so callers sharing them across goroutines freeze them
// first (see Sharing instances).
func SolveFrom(ctx context.Context, s *Setting, i, j *Instance, strategy Strategy, witness bool, a Artifacts, o Options) (Result, error) {
	if strategy == StrategyTractable {
		if !witness {
			ok, _, err := a.Verdict(ctx, false)
			if err != nil {
				return Result{}, err
			}
			return Result{Exists: ok, Strategy: StrategyTractable}, nil
		}
		trace, err := a.Tractable(ctx)
		if err != nil {
			return Result{}, err
		}
		sol, _, err := core.FindSolutionTractableFrom(i, trace, core.TractableOptions{Config: par.Config{Ctx: ctx}})
		if err != nil {
			return Result{}, err
		}
		return Result{Exists: sol != nil, Solution: sol, Strategy: StrategyTractable}, nil
	}
	ct, err := a.Canonical(ctx)
	if err != nil {
		return Result{}, err
	}
	ok, sol, stats, err := core.ExistsSolutionGenericFrom(s, i, j, ct, o.solveOptions(ctx))
	if err != nil {
		return Result{}, err
	}
	res := Result{Exists: ok, Solution: sol, Strategy: StrategyGeneric}
	if stats != nil {
		res.Nodes = stats.Nodes
	}
	return res, nil
}

// CertainFrom computes the certain answers of each query on (I, J)
// over the chased state a supplies; a query with an empty head gets the
// Boolean verdict. With o.Compiled, each query first tries its compiled
// plan. The plans' SOL(P) verdict is decided at most once for the
// whole batch: from a's cached Figure 3 verdict when a holds one (the
// compiled fragment lies inside C_tract, so both decide the same
// SOL(P)), else by the setting's solution probes. Queries the compiled
// path declines, and every query without o.Compiled, enumerate the image solutions of one canonical target,
// fetched at most once. The setting must be valid and the instances and
// queries must fit its schemas; I and J are taken on SolveFrom's terms.
// On error the returned slice ends at the failing query, so callers can
// still account for the fallbacks taken.
func CertainFrom(ctx context.Context, s *Setting, i, j *Instance, queries []UCQ, a Artifacts, o Options) ([]CertainResult, error) {
	cfg := par.Config{Ctx: ctx}
	out := make([]CertainResult, len(queries))
	var (
		probed, exists bool
		probeErr       error
		ct             *CanonicalTarget
	)
	for n, q := range queries {
		if o.Compiled {
			plan, err := a.Plan(ctx, q)
			if err == nil {
				if !probed {
					probed = true
					exists, probeErr = compiledVerdict(ctx, plan.SettingPlan(), i, j, a, cfg)
				}
				if err = probeErr; err == nil {
					var res certain.Result
					if res, err = plan.EvalGiven(exists, i, j, cfg); err == nil {
						out[n] = CertainResult{SolutionExists: res.SolutionExists, Certain: res.Certain, Answers: res.Answers, Compiled: true}
						continue
					}
				}
			}
			if out[n].FallbackReason = qplan.ReasonOf(err); out[n].FallbackReason == "" {
				return out[:n+1], err
			}
		}
		if ct == nil {
			var err error
			if ct, err = a.Canonical(ctx); err != nil {
				return out[:n+1], err
			}
		}
		eval := certain.Answers
		if q[0].IsBoolean() {
			eval = certain.Boolean
		}
		res, err := eval(s, i, j, q, certain.Options{Solve: o.solveOptions(ctx), Canonical: ct})
		if err != nil {
			return out[:n+1], err
		}
		out[n].SolutionExists, out[n].Certain, out[n].Answers, out[n].SolutionsExamined =
			res.SolutionExists, res.Certain, res.Answers, res.SolutionsExamined
	}
	return out, nil
}

// compiledVerdict decides SOL(P) for the compiled path: the null-free
// gate first, then a's cached verdict if it has one, else the probes.
func compiledVerdict(ctx context.Context, sp *SettingPlan, i, j *Instance, a Artifacts, cfg qplan.EvalOptions) (bool, error) {
	if err := sp.CheckInstances(i, j); err != nil {
		return false, err
	}
	if exists, known, err := a.Verdict(ctx, true); known || err != nil {
		return exists, err
	}
	return sp.SolutionExists(i, j, cfg)
}

// chaser is the façade's Artifacts: it chases (I, J) when asked and
// compiles the setting plan at most once.
type chaser struct {
	s     *Setting
	i, j  *Instance
	o     Options
	sp    *SettingPlan
	spErr error
}

func (c *chaser) Tractable(ctx context.Context) (*TractableTrace, error) {
	return core.ChaseCanonicalTractable(c.s, c.i, c.j, core.TractableOptions{Config: par.Config{Ctx: ctx}})
}

func (c *chaser) Verdict(ctx context.Context, cachedOnly bool) (bool, bool, error) {
	if cachedOnly {
		return false, false, nil
	}
	trace, err := c.Tractable(ctx)
	if err != nil {
		return false, false, err
	}
	ok, _, err := core.ExistsSolutionTractableFrom(c.i, trace, core.TractableOptions{Config: par.Config{Ctx: ctx}})
	return ok, err == nil, err
}

func (c *chaser) Canonical(ctx context.Context) (*CanonicalTarget, error) {
	return core.ChaseCanonicalTarget(c.s, c.i, c.j, c.o.solveOptions(ctx))
}

func (c *chaser) Plan(_ context.Context, q UCQ) (*Plan, error) {
	if c.sp == nil && c.spErr == nil {
		c.sp, c.spErr = qplan.CompileSetting(c.s)
	}
	if c.spErr != nil {
		return nil, c.spErr
	}
	return c.sp.CompileQuery(q)
}
