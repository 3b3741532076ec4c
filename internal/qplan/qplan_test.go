package qplan

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/rel"
	"repro/internal/workload"
)

func mustCompile(t *testing.T, s *core.Setting, q certain.UCQ) *Plan {
	t.Helper()
	p, err := Compile(s, q)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func openQ(name string, head []string, body ...dep.Atom) certain.UCQ {
	return certain.UCQ{{Name: name, Head: head, Body: body}}
}

// TestLAVCompiled pins the compiled path on the LAV workload family
// against hand-computed expectations.
func TestLAVCompiled(t *testing.T) {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(1))
	i, j := workload.LAVInstance(3, true, rng)

	// Open query projecting the constant positions: every Person pair.
	q := openQ("q", []string{"x", "g"}, dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u")))
	p := mustCompile(t, s, q)
	res, err := p.Eval(i, j, EvalOptions{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if !res.SolutionExists || len(res.Answers) != 3 {
		t.Fatalf("got SolutionExists=%v answers=%v, want 3 answers", res.SolutionExists, res.Answers)
	}

	// Head variable on the existential position: the disjunct drops, no
	// ground tuple is certain.
	qNull := openQ("qn", []string{"x", "u"}, dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u")))
	pNull := mustCompile(t, s, qNull)
	if pNull.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", pNull.dropped)
	}
	res, err = pNull.Eval(i, j, EvalOptions{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if !res.SolutionExists || res.Answers != nil {
		t.Fatalf("null-head query: got %+v, want no answers", res)
	}

	// Boolean query: nulls may appear anywhere in the match.
	qb := certain.UCQ{{Name: "qb", Body: []dep.Atom{dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u"))}}}
	pb := mustCompile(t, s, qb)
	res, err = pb.Eval(i, j, EvalOptions{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if !res.Certain {
		t.Fatalf("boolean: got not certain, want certain")
	}

	// Unsolvable instance: no solution, vacuous certainty.
	iBad, jBad := workload.LAVInstance(3, false, rand.New(rand.NewSource(1)))
	res, err = p.Eval(iBad, jBad, EvalOptions{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if res.SolutionExists || res.Answers != nil {
		t.Fatalf("unsolvable: got %+v, want vacuous result", res)
	}
}

// TestCompiledMatchesChaseOnStockFamilies compares the compiled path
// against the enumeration path on the stock compilable workloads.
func TestCompiledMatchesChaseOnStockFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		s    *core.Setting
		i, j *rel.Instance
		q    certain.UCQ
	}{}
	{
		s := workload.LAVSetting()
		i, j := workload.LAVInstance(3, true, rng)
		cases = append(cases,
			struct {
				name string
				s    *core.Setting
				i, j *rel.Instance
				q    certain.UCQ
			}{"lav-open", s, i, j, openQ("q", []string{"x", "g"}, dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u")))},
		)
	}
	{
		s := workload.FullSTSetting()
		i, j := workload.FullSTInstance(4, true, rng)
		cases = append(cases,
			struct {
				name string
				s    *core.Setting
				i, j *rel.Instance
				q    certain.UCQ
			}{"fullst-open", s, i, j, openQ("q", []string{"x", "y"}, dep.NewAtom("H", dep.Var("x"), dep.Var("y")))},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustCompile(t, tc.s, tc.q)
			got, err := p.Eval(tc.i, tc.j, EvalOptions{})
			if err != nil {
				t.Fatalf("compiled: %v", err)
			}
			want, err := certain.Answers(tc.s, tc.i, tc.j, tc.q, certain.Options{})
			if err != nil {
				t.Fatalf("enumeration: %v", err)
			}
			if got.SolutionExists != want.SolutionExists || !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Fatalf("compiled %+v != enumerated %+v", got, want)
			}
		})
	}
}

// TestFallbackReasons pins the typed reasons for each gate of the
// fragment.
func TestFallbackReasons(t *testing.T) {
	keyed := workload.KeyedLAVSetting()
	if r := ClassifySetting(keyed); r != FallbackTargetDeps {
		t.Fatalf("keyed: reason %q, want %q", r, FallbackTargetDeps)
	}

	// The canonical soundness trap: P(x) -> ∃y R(x,y); R(x,y) -> P(y)
	// is in C_tract, but Σts forces the null to a constant, so the
	// compiled unfolding must refuse it (see TestMarkedHeadFallbackPinned).
	trap := markedHeadSetting()
	if r := ClassifySetting(trap); r != FallbackMarkedHead {
		t.Fatalf("trap: reason %q, want %q", r, FallbackMarkedHead)
	}
	if _, err := CompileSetting(trap); ReasonOf(err) != FallbackMarkedHead {
		t.Fatalf("CompileSetting(trap): %v", err)
	}

	// Nulls in an instance are an eval-time fallback.
	s := workload.LAVSetting()
	sp, err := CompileSetting(s)
	if err != nil {
		t.Fatalf("CompileSetting: %v", err)
	}
	i := rel.NewInstance()
	i.Add("Person", rel.Const("p"), rel.Null(1))
	i.Freeze()
	if _, err := sp.SolutionExists(i, nil, EvalOptions{}); ReasonOf(err) != FallbackNulls {
		t.Fatalf("null instance: %v", err)
	}

	if ReasonOf(nil) != FallbackNone || ReasonOf(errors.New("x")) != FallbackNone {
		t.Fatal("ReasonOf should be FallbackNone for nil and foreign errors")
	}
}

// markedHeadSetting is in C_tract but outside the compilable fragment:
// the marked variable y flows into the Σts head.
func markedHeadSetting() *core.Setting {
	return &core.Setting{
		Name:   "marked-head-trap",
		Source: rel.SchemaOf("P", 1),
		Target: rel.SchemaOf("R", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("P", dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("R", dep.Var("x"), dep.Var("y"))},
		}},
		TS: []dep.TGD{{
			Label: "ts",
			Body:  []dep.Atom{dep.NewAtom("R", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("P", dep.Var("y"))},
		}},
	}
}

// TestMarkedHeadFallbackPinned pins WHY the marked-head gate exists:
// on the trap setting the enumeration path finds certain answers that
// a naive ground-only unfolding could never produce — Σts forces the
// null to a constant, making {(a,a)} certain for q(x,y) :- R(x,y).
func TestMarkedHeadFallbackPinned(t *testing.T) {
	s := markedHeadSetting()
	i := rel.NewInstance()
	i.Add("P", rel.Const("a"))
	i.Freeze()
	j := rel.NewInstance()
	j.Freeze()
	q := openQ("q", []string{"x", "y"}, dep.NewAtom("R", dep.Var("x"), dep.Var("y")))
	res, err := certain.Answers(s, i, j, q, certain.Options{})
	if err != nil {
		t.Fatalf("enumeration: %v", err)
	}
	want := []rel.Tuple{{rel.Const("a"), rel.Const("a")}}
	if !res.SolutionExists || !reflect.DeepEqual(res.Answers, want) {
		t.Fatalf("enumeration on trap: %+v, want answers %v", res, want)
	}
	// The compiled path must refuse rather than report no answers.
	if _, err := Compile(s, q); ReasonOf(err) != FallbackMarkedHead {
		t.Fatalf("Compile(trap) = %v, want marked-head fallback", err)
	}
}

// TestSelfJoinOnExistential checks the Skolem discipline: joining two
// query atoms on an existential position must force the two triggers to
// coincide (equal universal bindings), not invent a join that no
// solution satisfies.
func TestSelfJoinOnExistential(t *testing.T) {
	s := &core.Setting{
		Name:   "skolem-join",
		Source: rel.SchemaOf("A", 1, "B", 1),
		Target: rel.SchemaOf("R", 2, "S", 2),
		ST: []dep.TGD{
			{
				Label: "st-r",
				Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
				Head:  []dep.Atom{dep.NewAtom("R", dep.Var("x"), dep.Var("u"))},
			},
			{
				Label: "st-s",
				Body:  []dep.Atom{dep.NewAtom("B", dep.Var("x"))},
				Head:  []dep.Atom{dep.NewAtom("S", dep.Var("x"), dep.Var("u"))},
			},
		},
	}
	i := rel.NewInstance()
	i.Add("A", rel.Const("a"))
	i.Add("A", rel.Const("b"))
	i.Add("B", rel.Const("a"))
	i.Freeze()
	j := rel.NewInstance()
	j.Freeze()

	// Same tgd, same existential: certain iff the universal bindings
	// can coincide — q(x,y) :- R(x,u), R(y,u) forces x = y.
	q := openQ("q", []string{"x", "y"},
		dep.NewAtom("R", dep.Var("x"), dep.Var("u")),
		dep.NewAtom("R", dep.Var("y"), dep.Var("u")))
	p := mustCompile(t, s, q)
	got, err := p.Eval(i, j, EvalOptions{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	want, err := certain.Answers(s, i, j, q, certain.Options{})
	if err != nil {
		t.Fatalf("enumeration: %v", err)
	}
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("compiled %v != enumerated %v", got.Answers, want.Answers)
	}
	if len(got.Answers) != 2 {
		t.Fatalf("answers %v, want the two diagonal pairs", got.Answers)
	}

	// Different tgds: nulls never join — Boolean q :- R(x,u), S(y,u)
	// is not certain (keeping both nulls fresh separates them).
	qb := certain.UCQ{{Name: "qb", Body: []dep.Atom{
		dep.NewAtom("R", dep.Var("x"), dep.Var("u")),
		dep.NewAtom("S", dep.Var("y"), dep.Var("u")),
	}}}
	pb := mustCompile(t, s, qb)
	gotB, err := pb.Eval(i, j, EvalOptions{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	wantB, err := certain.Boolean(s, i, j, qb, certain.Options{})
	if err != nil {
		t.Fatalf("enumeration: %v", err)
	}
	if gotB.Certain != wantB.Certain || gotB.Certain {
		t.Fatalf("cross-tgd null join: compiled %v, enumerated %v, want not certain", gotB.Certain, wantB.Certain)
	}
}

// TestPlanString smoke-tests the offline rendering.
func TestPlanString(t *testing.T) {
	s := workload.LAVSetting()
	q := openQ("q", []string{"x", "g"}, dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u")))
	p := mustCompile(t, s, q)
	out := p.String()
	for _, want := range []string{"plan q: open", "src:Person", "probe ts-member", "disjunct"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q, missing %q", out, want)
		}
	}
}

// TestEvalCanceled checks that a canceled context surfaces as an error
// wrapping par.ErrCanceled rather than a truncated verdict.
func TestEvalCanceled(t *testing.T) {
	s := workload.LAVSetting()
	i, j := workload.LAVInstance(200, true, rand.New(rand.NewSource(3)))
	q := openQ("q", []string{"x", "g"}, dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u")))
	p := mustCompile(t, s, q)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Eval(i, j, EvalOptions{Ctx: ctx}); err == nil || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled eval: err = %v, want ErrCanceled", err)
	}
}

// pollCanceledCtx is a context that reads as canceled from its
// (after+1)-th Err poll on, so the cancellation lands wherever that
// poll falls — past the up-front checks, inside a plan or probe scan.
type pollCanceledCtx struct {
	context.Context
	polls, after int
}

func (c *pollCanceledCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestEvalCanceledMidScan cancels the context at every poll of an
// evaluation on a LAV(1600) plan in turn — the up-front checks, then
// the searcher's polls inside the Σts probe and query scans. Eval of an
// open query, SolutionExists and EvalGiven must each return an error
// matching core.ErrCanceled, never a truncated answer set or a false
// verdict; a run whose polls all pass returns the full result.
func TestEvalCanceledMidScan(t *testing.T) {
	s := workload.LAVSetting()
	i, j := workload.LAVInstance(1600, true, rand.New(rand.NewSource(3)))
	i.Freeze()
	j.Freeze()
	q := openQ("q", []string{"x", "g"}, dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u")))
	p := mustCompile(t, s, q)
	for _, c := range []struct {
		name string
		run  func(EvalOptions) (certain.Result, error)
	}{
		{"Eval", func(o EvalOptions) (certain.Result, error) { return p.Eval(i, j, o) }},
		{"SolutionExists", func(o EvalOptions) (certain.Result, error) {
			ok, err := p.SettingPlan().SolutionExists(i, j, o)
			return certain.Result{SolutionExists: ok}, err
		}},
		{"EvalGiven", func(o EvalOptions) (certain.Result, error) { return p.EvalGiven(true, i, j, o) }},
	} {
		full := &pollCanceledCtx{Context: context.Background(), after: 1 << 30}
		want, err := c.run(EvalOptions{Ctx: full})
		if err != nil || !want.SolutionExists {
			t.Fatalf("%s uncanceled: %+v, %v", c.name, want, err)
		}
		t.Logf("%s: %d polls", c.name, full.polls)
		if full.polls < 2 {
			t.Fatalf("%s polled its context %d times; the scans must poll past the up-front check", c.name, full.polls)
		}
		for after := 0; after < full.polls; after++ {
			got, err := c.run(EvalOptions{Ctx: &pollCanceledCtx{Context: context.Background(), after: after}})
			if err == nil || !errors.Is(err, core.ErrCanceled) {
				t.Fatalf("%s canceled at poll %d of %d: %+v (%d answers), err = %v; want ErrCanceled",
					c.name, after+1, full.polls, got.SolutionExists, len(got.Answers), err)
			}
		}
	}
}

// TestPlanConcurrentCallers: one compiled plan evaluated from several
// goroutines over shared frozen instances — as pdxd's plan cache serves
// concurrent requests — gives every caller the serial result.
func TestPlanConcurrentCallers(t *testing.T) {
	s := workload.LAVSetting()
	i, j := workload.LAVInstance(200, true, rand.New(rand.NewSource(4)))
	i.Freeze()
	j.Freeze()
	q := openQ("q", []string{"x", "g"}, dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u")))
	p := mustCompile(t, s, q)
	want, err := p.Eval(i, j, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !want.SolutionExists || len(want.Answers) != 200 {
		t.Fatalf("serial eval: %d answers, solution %v; want 200 answers", len(want.Answers), want.SolutionExists)
	}
	got := make([]certain.Result, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = p.Eval(i, j, EvalOptions{})
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil || !reflect.DeepEqual(got[g], want) {
			t.Fatalf("caller %d: %+v, %v; want the serial result", g, got[g], errs[g])
		}
	}
}
