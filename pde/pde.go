// Package pde is the public API of the peer data exchange library, a
// reproduction of "Peer Data Exchange" (Fuxman, Kolaitis, Miller, Tan —
// PODS 2005).
//
// A peer data exchange (PDE) setting relates an authoritative source
// peer to a target peer through source-to-target tgds Σst (what the
// source offers), target-to-source tgds Σts (what the target is willing
// to accept), and target constraints Σt. Given a source instance I and
// a target instance J, the central questions are:
//
//   - SOL(P): can J be augmented to a solution J' so that (I, J')
//     satisfies every constraint? (Definition 3; NP-complete in general,
//     Theorem 3; polynomial for the class C_tract, Theorem 4.)
//   - certain answers: which query answers hold in every solution?
//     (Definition 4; coNP-complete for conjunctive queries.)
//
// # Quick start
//
//	s, _ := pde.ParseSetting(`
//	    source E/2
//	    target H/2
//	    st: E(x,z), E(z,y) -> H(x,y)
//	    ts: H(x,y) -> E(x,y)
//	`)
//	i, _ := pde.ParseInstance("E(a,b). E(b,c). E(a,c).")
//	j := pde.NewInstance()
//	res, _ := pde.ExistsSolution(s, i, j)
//	fmt.Println(res.Exists) // true
//
// The heavy lifting lives in the internal packages (chase, hom, core);
// this package re-exports the stable surface and picks the right
// algorithm per setting.
//
// # Sharing instances
//
// Instances are copy-on-write: a clone shares each relation with the
// instance it came from until one of them writes it. Cloning an
// unfrozen instance therefore writes to it, and the solve and
// certain-answer calls clone their input instances. An instance that
// several goroutines pass to these calls at once must be frozen first
// (Instance.Freeze); a frozen instance is never written, so any number
// of calls may share it.
package pde

import (
	"context"
	"fmt"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/depparse"
	"repro/internal/lint"
	"repro/internal/par"
	"repro/internal/qplan"
	"repro/internal/rel"
)

// Typed sentinels for the failure modes of long-running calls. They
// round-trip through every façade entry point, so callers can match
// them with errors.Is:
//
//	res, err := pde.ExistsSolutionContext(ctx, s, i, j, opts)
//	switch {
//	case errors.Is(err, pde.ErrCanceled):     // ctx canceled or deadline hit
//	case errors.Is(err, pde.ErrSearchBudget): // Options.MaxNodes exhausted
//	case errors.Is(err, pde.ErrChaseBudget):  // chase step budget exhausted
//	}
//
// Errors matching ErrCanceled also match the context package's own
// context.Canceled or context.DeadlineExceeded, whichever applied.
var (
	// ErrSearchBudget reports that the generic solver exhausted its
	// node budget (Options.MaxNodes) before deciding.
	ErrSearchBudget = core.ErrSearchBudget
	// ErrCanceled reports that a context canceled the computation
	// before it completed.
	ErrCanceled = par.ErrCanceled
	// ErrChaseBudget reports that a chase phase exhausted its step
	// budget before reaching a fixpoint.
	ErrChaseBudget = chase.ErrBudgetExhausted
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Setting is a peer data exchange setting (S, T, Σst, Σts, Σt).
	Setting = core.Setting
	// MultiSetting is a family of settings sharing one target peer.
	MultiSetting = core.MultiSetting
	// Instance is a set of facts over a relational schema. Freeze an
	// instance before sharing it between goroutines: cloning an
	// unfrozen instance writes to it (see Sharing instances above).
	Instance = rel.Instance
	// Schema declares relation names and arities.
	Schema = rel.Schema
	// Value is a constant or a labeled null.
	Value = rel.Value
	// Tuple is an ordered list of values.
	Tuple = rel.Tuple
	// Fact is a tuple tagged with its relation.
	Fact = rel.Fact
	// TGD is a tuple-generating dependency.
	TGD = dep.TGD
	// EGD is an equality-generating dependency.
	EGD = dep.EGD
	// CQ is a conjunctive query over the target schema.
	CQ = certain.CQ
	// UCQ is a union of conjunctive queries.
	UCQ = certain.UCQ
	// CtractReport explains a C_tract classification (Definition 9).
	CtractReport = dep.CtractReport
	// TractableTrace is the chased state of the Figure 3 algorithm: the
	// canonical instances and the block decomposition of I_can.
	TractableTrace = core.TractableTrace
	// CanonicalTarget is the chased canonical target the generic solver
	// and the certain-answers enumeration search over.
	CanonicalTarget = core.CanonicalTarget
	// VetReport is the result of a static-analysis pass over a setting.
	VetReport = lint.Report
	// Plan is a compiled certain-answer plan; see CompileCertain.
	Plan = qplan.Plan
	// SettingPlan is the per-setting half of a compiled plan: the origin
	// table and solution probes shared by every query plan of a setting.
	SettingPlan = qplan.SettingPlan
	// CompiledEvalOptions tunes direct evaluation of a compiled plan
	// (Plan.Eval); the zero value is serial with no cancellation.
	CompiledEvalOptions = qplan.EvalOptions
	// Diagnostic is one vet finding with a stable check ID, a severity,
	// a file:line:col position, and a machine-readable witness.
	Diagnostic = lint.Diagnostic
	// Severity grades a diagnostic: error, warn, or info.
	Severity = lint.Severity
)

// The vet severity levels.
const (
	SeverityError = lint.SeverityError
	SeverityWarn  = lint.SeverityWarn
	SeverityInfo  = lint.SeverityInfo
)

// CompiledFallbackReasons lists every reason the compiled
// certain-answer path may decline a setting, query, or instance pair
// (see Options.Compiled); stable strings, suitable as metric labels.
var CompiledFallbackReasons = qplan.FallbackReasons

// ClassifyCompilable reports why the compiled certain-answer path
// declines the setting, or "" when CompileSettingPlan succeeds.
func ClassifyCompilable(s *Setting) string { return qplan.ClassifySetting(s) }

// CompileSettingPlan compiles the setting's origin table and solution
// probes once, for reuse across queries (see SettingPlan.CompileQuery).
// Settings outside the compilable fragment return an error whose
// CompiledFallbackReason is non-empty.
func CompileSettingPlan(s *Setting) (*SettingPlan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return qplan.CompileSetting(s)
}

// CompileCertain compiles a certain-answer plan for the query over the
// setting: evaluation over (I, J) returns exactly the answers of
// CertainAnswers without chasing or enumerating solutions. Settings
// outside the compilable fragment return an error whose
// CompiledFallbackReason is non-empty.
func CompileCertain(s *Setting, q UCQ) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return qplan.Compile(s, q)
}

// CompiledFallbackReason extracts the fallback reason from an error of
// the compiled path, or "" for nil and for genuine errors.
func CompiledFallbackReason(err error) string { return qplan.ReasonOf(err) }

// Const returns the constant with the given text.
func Const(s string) Value { return rel.Const(s) }

// NullValue returns the labeled null with the given label. Labels range
// over id >= 0; NullValue panics on a negative label.
func NullValue(id int) Value { return rel.Null(id) }

// NewInstance returns an empty instance.
func NewInstance() *Instance { return rel.NewInstance() }

// ParseSetting parses the text form of a setting; see
// depparse.ParseSetting for the grammar.
func ParseSetting(src string) (*Setting, error) { return depparse.ParseSetting(src) }

// ParseInstance parses the text form of an instance (one fact per
// line).
func ParseInstance(src string) (*Instance, error) { return depparse.ParseInstance(src) }

// ParseQueries parses a query file into unions of conjunctive queries
// grouped by head name.
func ParseQueries(src string) ([]UCQ, error) { return depparse.ParseQueries(src) }

// FormatInstance renders an instance in the ParseInstance format.
func FormatInstance(inst *Instance) string { return depparse.FormatInstance(inst) }

// FormatSetting renders a setting in the ParseSetting format.
func FormatSetting(s *Setting) string { return depparse.FormatSetting(s) }

// Classify reports whether the setting belongs to the tractable class
// C_tract of Definition 9, with explanations.
func Classify(s *Setting) CtractReport { return s.Classify() }

// Vet runs the static-analysis pipeline over the text of a setting and
// returns positioned diagnostics: well-formedness errors, lost-guarantee
// warnings (outside C_tract, target tgds not weakly acyclic), and
// dead-weight findings. The file name is only used to label diagnostics.
// Parse failures are reported as a "parse-error" diagnostic, never as a
// Go error.
func Vet(src, file string) *VetReport { return lint.Vet(src, file) }

// Strategy names the algorithm ExistsSolution selected.
type Strategy string

const (
	// StrategyTractable is the polynomial-time algorithm of Figure 3,
	// used for settings in C_tract.
	StrategyTractable Strategy = "tractable"
	// StrategyGeneric is the complete backtracking solver, used outside
	// C_tract (exponential in the worst case, per Theorem 3).
	StrategyGeneric Strategy = "generic"
)

// Result reports an ExistsSolution or FindSolution call.
type Result struct {
	// Exists reports whether a solution exists.
	Exists bool
	// Solution is a witness solution (FindSolution always fills it when
	// Exists; ExistsSolution fills it when the generic solver ran).
	Solution *Instance
	// Strategy is the algorithm used.
	Strategy Strategy
	// Nodes is the number of search-tree nodes the generic solver
	// visited; 0 when the tractable algorithm ran (it searches no
	// assignment tree).
	Nodes int64
}

// Options configures the façade entry points.
type Options struct {
	// ForceGeneric skips the C_tract dispatch and always runs the
	// complete solver.
	ForceGeneric bool
	// Compiled makes the certain-answer entry points try the compiled
	// plan path first (package qplan): for settings in the compilable
	// C_tract fragment the chase and solution enumeration are skipped
	// entirely. Outside the fragment the call falls back to the
	// enumeration path automatically and reports why in
	// CertainResult.FallbackReason. Results are byte-identical on both
	// paths (SolutionsExamined excepted: the compiled path examines
	// none).
	Compiled bool
	// MaxNodes bounds the generic solver's search nodes; 0 means no
	// bound. An exhausted budget fails with ErrSearchBudget.
	MaxNodes int64
}

// solveOptions configures the generic solver for one call.
func (o Options) solveOptions(ctx context.Context) core.SolveOptions {
	return core.SolveOptions{Config: par.Config{Ctx: ctx}, MaxNodes: o.MaxNodes}
}

// ExistsSolution decides SOL(P) for (I, J): it runs the polynomial
// Figure 3 algorithm when the setting is in C_tract and the complete
// backtracking solver otherwise. The facts of i and j are not changed,
// but the call clones them, which writes to an unfrozen instance: freeze
// i and j before passing them to concurrent calls (see Sharing
// instances). The other solve and certain-answer calls take their
// instances on the same terms.
func ExistsSolution(s *Setting, i, j *Instance, opts ...Options) (Result, error) {
	return solve(nil, s, i, j, false, options(opts))
}

// ExistsSolutionContext is ExistsSolution with cancellation: when ctx
// is canceled or its deadline expires, the solver, the chase, and the
// homomorphism searches all stop promptly and the call returns an
// error matching pde.ErrCanceled (and the ctx's own error).
func ExistsSolutionContext(ctx context.Context, s *Setting, i, j *Instance, opts ...Options) (Result, error) {
	return solve(ctx, s, i, j, false, options(opts))
}

// FindSolution decides SOL(P) and constructs a witness solution when
// one exists.
func FindSolution(s *Setting, i, j *Instance, opts ...Options) (Result, error) {
	return solve(nil, s, i, j, true, options(opts))
}

// FindSolutionContext is FindSolution with cancellation; see
// ExistsSolutionContext.
func FindSolutionContext(ctx context.Context, s *Setting, i, j *Instance, opts ...Options) (Result, error) {
	return solve(ctx, s, i, j, true, options(opts))
}

func options(opts []Options) Options {
	if len(opts) == 0 {
		return Options{}
	}
	if len(opts) > 1 {
		panic("pde: pass at most one Options")
	}
	return opts[0]
}

// solve validates and classifies, then runs the shared dispatch over
// chases made on demand.
func solve(ctx context.Context, s *Setting, i, j *Instance, witness bool, o Options) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := validateInstances(s, i, j); err != nil {
		return Result{}, err
	}
	strategy := StrategyGeneric
	if !o.ForceGeneric && s.Classify().InCtract {
		strategy = StrategyTractable
	}
	return SolveFrom(ctx, s, i, j, strategy, witness, &chaser{s: s, i: i, j: j, o: o}, o)
}

// IsSolution checks Definition 2 directly: J ⊆ J', (I, J') ⊨ Σst ∪ Σts,
// and J' ⊨ Σt.
func IsSolution(s *Setting, i, j, jp *Instance) bool {
	return s.IsSolution(i, j, jp)
}

// ExplainNonSolution lists the reasons J' fails to be a solution, in
// human-readable form; empty for solutions.
func ExplainNonSolution(s *Setting, i, j, jp *Instance) []string {
	var out []string
	for _, v := range s.SolutionViolations(i, j, jp) {
		out = append(out, v.String())
	}
	return out
}

// CertainResult reports a certain-answers computation.
type CertainResult struct {
	// SolutionExists is false when (I, J) has no solution at all; every
	// query is then vacuously certain.
	SolutionExists bool
	// Certain is the verdict for Boolean queries.
	Certain bool
	// Answers holds the certain tuples for open queries, sorted.
	Answers []Tuple
	// SolutionsExamined counts the image solutions the evaluator
	// enumerated before settling the verdict; always 0 on the compiled
	// path.
	SolutionsExamined int
	// Compiled reports that the compiled plan path produced the result
	// (Options.Compiled was set and the setting compiled).
	Compiled bool
	// FallbackReason is why the compiled path declined when
	// Options.Compiled was set but the enumeration path ran; "" when the
	// compiled path ran or was not requested.
	FallbackReason string
}

// CertainAnswers computes certain(q, (I, J)) for a union of
// conjunctive queries (Definition 4). The query's head decides the form
// of the result: the verdict in Certain for a Boolean query (empty
// head), the certain tuples in Answers for an open one. Like
// ExistsSolution, it clones i and j, so concurrent calls sharing them
// need them frozen.
func CertainAnswers(s *Setting, i, j *Instance, q UCQ, opts ...Options) (CertainResult, error) {
	return certainOne(nil, s, i, j, q, options(opts))
}

// CertainAnswersContext is CertainAnswers with cancellation; see
// ExistsSolutionContext.
func CertainAnswersContext(ctx context.Context, s *Setting, i, j *Instance, q UCQ, opts ...Options) (CertainResult, error) {
	return certainOne(ctx, s, i, j, q, options(opts))
}

// certainOne validates, then runs the shared dispatch on a batch of one
// query over chases made on demand.
func certainOne(ctx context.Context, s *Setting, i, j *Instance, q UCQ, o Options) (CertainResult, error) {
	if err := prepareCertain(s, i, j, q); err != nil {
		return CertainResult{}, err
	}
	res, err := CertainFrom(ctx, s, i, j, []UCQ{q}, &chaser{s: s, i: i, j: j, o: o}, o)
	if err != nil {
		return CertainResult{}, err
	}
	return res[0], nil
}

func prepareCertain(s *Setting, i, j *Instance, q UCQ) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := validateInstances(s, i, j); err != nil {
		return err
	}
	return q.Validate(s.Target)
}

func validateInstances(s *Setting, i, j *Instance) error {
	if err := i.ValidateAgainst(s.Source); err != nil {
		return fmt.Errorf("pde: source instance: %w", err)
	}
	if err := j.ValidateAgainst(s.Target); err != nil {
		return fmt.Errorf("pde: target instance: %w", err)
	}
	return nil
}
