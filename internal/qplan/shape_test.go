package qplan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/rel"
	"repro/internal/workload"
)

// shapeConsts is the constant pool of shapeQuery: a, b and c are the
// instances' domain, d occurs in none of them.
var shapeConsts = []string{"a", "b", "c", "d"}

// shapeSetting is a random compilable setting; with headConst set, one
// Σst head argument becomes a constant of the instances' domain, which
// query constants equal to it then keep literal in their shape.
func shapeSetting(rng *rand.Rand, headConst bool) *core.Setting {
	s := workload.RandomCompilableSetting(rng)
	if headConst {
		d := &s.ST[rng.Intn(len(s.ST))]
		a := &d.Head[rng.Intn(len(d.Head))]
		a.Args[rng.Intn(len(a.Args))] = dep.Cst(shapeConsts[rng.Intn(3)])
	}
	return s
}

// shapeQuery is a random target query whose terms turn into constants
// from shapeConsts with probability 2/5, so constants repeat within
// and across atoms. A disjunct left without variables is given back
// its first one, so open heads still resolve.
func shapeQuery(rng *rand.Rand, boolean bool) certain.UCQ {
	q := workload.RandomTargetQuery(rng, boolean)
	for d := range q {
		head := map[string]bool{}
		for _, h := range q[d].Head {
			head[h] = true
		}
		for a := range q[d].Body {
			args := append([]dep.Term(nil), q[d].Body[a].Args...)
			for k, t := range args {
				if !head[t.Name] && rng.Intn(5) < 2 {
					args[k] = dep.Cst(shapeConsts[rng.Intn(len(shapeConsts))])
				}
			}
			q[d].Body[a].Args = args
		}
	}
	return q
}

// renameConsts returns q with its k-th distinct constant outside keep,
// in first-occurrence order, renamed to "k<k>": a query of the same
// shape whose renamed constants occur in no instance.
func renameConsts(q certain.UCQ, keep map[string]bool) certain.UCQ {
	names := map[string]string{}
	out := make(certain.UCQ, len(q))
	for d, cq := range q {
		body := make([]dep.Atom, len(cq.Body))
		for a, at := range cq.Body {
			args := append([]dep.Term(nil), at.Args...)
			for k, t := range args {
				if t.IsConst && !keep[t.Name] {
					n, ok := names[t.Name]
					if !ok {
						n = fmt.Sprintf("k%d", len(names))
						names[t.Name] = n
					}
					args[k] = dep.Cst(n)
				}
			}
			body[a] = dep.Atom{Rel: at.Rel, Args: args}
		}
		out[d] = certain.CQ{Name: cq.Name, Head: cq.Head, Body: body}
	}
	return out
}

// literalPlan is the reference plan of q: its unfolding with every
// constant literal (no params), deduplicated as CompileQuery does.
func literalPlan(t *testing.T, sp *SettingPlan, q certain.UCQ) *Plan {
	t.Helper()
	sh := &shape{sp: sp, name: q[0].Name, boolean: q[0].IsBoolean(), headArity: len(q[0].Head)}
	seen := map[string]bool{}
	for _, cq := range q {
		headTerms := make([]dep.Term, len(cq.Head))
		for i, v := range cq.Head {
			headTerms[i] = dep.Var(v)
		}
		ds, dropped, err := sp.unfold(headTerms, cq.Body, !sh.boolean, nil)
		if err != nil {
			t.Fatalf("literal unfolding of %v: %v", q, err)
		}
		sh.dropped += dropped
		for _, d := range ds {
			if !seen[d.key] {
				seen[d.key] = true
				sh.disjuncts = append(sh.disjuncts, d)
			}
		}
	}
	return &Plan{shape: sh}
}

// checkShapePlan runs one case of the shape-plan property: the plan
// compiled from a renamed sibling of q (its Σst head constants kept)
// and bound to q agrees with literalPlan of q and, when the case is small enough to
// enumerate, with the chase-backed certain answers. It reports whether
// the setting was in the fragment.
func checkShapePlan(t *testing.T, rng *rand.Rand) bool {
	t.Helper()
	headConst := rng.Intn(4) == 0
	s := shapeSetting(rng, headConst)
	if ClassifySetting(s) != FallbackNone {
		return false
	}
	sp, err := CompileSetting(s)
	if err != nil {
		t.Fatalf("CompileSetting: %v", err)
	}
	i, j := workload.RandomCompilableInstance(rng)
	q := shapeQuery(rng, rng.Intn(2) == 0)
	sibling := renameConsts(q, sp.headConsts)
	if got, want := string(sp.AppendShape(nil, sibling)), string(sp.AppendShape(nil, q)); got != want {
		t.Fatalf("shape texts differ:\n%s\n%s", got, want)
	}
	shaped, err := sp.CompileQuery(sibling)
	if err != nil {
		t.Fatalf("CompileQuery(%v): %v", sibling, err)
	}
	p := shaped.Bind(q)
	lit := literalPlan(t, sp, q)
	got, err := p.Eval(i, j, EvalOptions{})
	if err != nil {
		t.Fatalf("shape plan eval: %v", err)
	}
	want, err := lit.Eval(i, j, EvalOptions{})
	if err != nil {
		t.Fatalf("literal plan eval: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("setting:\n%v\nquery %v (shape from %v):\nshape plan   %+v\nliteral plan %+v\n%s\n%s", s, q, sibling, got, want, p, lit)
	}
	if p.String() != lit.String() {
		t.Fatalf("bound plan renders\n%s\nliteral plan\n%s", p, lit)
	}
	ct, err := core.ChaseCanonicalTarget(s, i, j, core.SolveOptions{})
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	adom := len(ct.JCan.ActiveDomain()) + len(i.ActiveDomain())
	if math.Pow(float64(adom+1), float64(len(ct.JCan.Nulls()))) > enumBudget {
		return true
	}
	eval := certain.Answers
	if q[0].IsBoolean() {
		eval = certain.Boolean
	}
	chased, err := eval(s, i, j, q, certain.Options{Canonical: ct})
	if err != nil {
		t.Fatalf("enumeration: %v", err)
	}
	if got.SolutionExists != chased.SolutionExists || got.Certain != chased.Certain || !reflect.DeepEqual(got.Answers, chased.Answers) {
		t.Fatalf("setting:\n%v\nquery %v: shape plan %+v, certain %+v", s, q, got, chased)
	}
	return true
}

// TestShapePlanMatchesLiteralPlan: over random compilable settings
// (a quarter with a constant in a Σst head, which stays literal in
// the shapes of queries that use it) and random queries with repeated constants, a plan compiled for one
// query's shape and bound to another query of that shape answers
// exactly as that query's literal plan and its certain answers.
func TestShapePlanMatchesLiteralPlan(t *testing.T) {
	cases := 0
	for seed := int64(0); cases < 300; seed++ {
		if seed > 3000 {
			t.Fatalf("only %d cases in the fragment after %d seeds", cases, seed)
		}
		if checkShapePlan(t, rand.New(rand.NewSource(seed))) {
			cases++
		}
	}
}

// TestShapeKeepsRepeatedConstantsApart: R('a','a') and R('a','b') have
// different shapes, so neither borrows the other's plan, while
// R('a','b') and R('c','d') share one.
func TestShapeKeepsRepeatedConstantsApart(t *testing.T) {
	sp, err := CompileSetting(workload.LAVSetting())
	if err != nil {
		t.Fatal(err)
	}
	shape := func(x, y string) string {
		return string(sp.AppendShape(nil, openQ("q", []string{"u"}, dep.NewAtom("Rec", dep.Cst(x), dep.Cst(y), dep.Var("u")))))
	}
	if shape("a", "a") == shape("a", "b") {
		t.Fatalf("repeated and distinct constants share the shape %q", shape("a", "a"))
	}
	if shape("a", "b") != shape("c", "d") {
		t.Fatalf("shapes %q and %q differ", shape("a", "b"), shape("c", "d"))
	}
	if want := "q(u) :- Rec($0, $0, u)\n"; shape("a", "a") != want {
		t.Fatalf("shape %q, want %q", shape("a", "a"), want)
	}
}

// TestShapeKeepsHeadConstantsLiteral pins the example of DESIGN §15:
// with Σst heads R(x,x) and T('c'), the query R('a',y), T(y) prunes
// the disjunct unfolding both atoms through the heads (y would be 'a'
// and 'c'), while R('c',y), T(y) keeps it. 'c' therefore stays literal
// in the shape text, and 'a' and 'b' share a slot.
func TestShapeKeepsHeadConstantsLiteral(t *testing.T) {
	s := &core.Setting{
		Name:   "head-const",
		Source: rel.SchemaOf("S", 1),
		Target: rel.SchemaOf("R", 2, "T", 1),
		ST: []dep.TGD{
			{Label: "st-r", Body: []dep.Atom{dep.NewAtom("S", dep.Var("x"))}, Head: []dep.Atom{dep.NewAtom("R", dep.Var("x"), dep.Var("x"))}},
			{Label: "st-t", Body: []dep.Atom{dep.NewAtom("S", dep.Var("x"))}, Head: []dep.Atom{dep.NewAtom("T", dep.Cst("c"))}},
		},
	}
	sp, err := CompileSetting(s)
	if err != nil {
		t.Fatal(err)
	}
	query := func(c string) certain.UCQ {
		return certain.UCQ{{Name: "q", Body: []dep.Atom{dep.NewAtom("R", dep.Cst(c), dep.Var("y")), dep.NewAtom("T", dep.Var("y"))}}}
	}
	shape := func(c string) string { return string(sp.AppendShape(nil, query(c))) }
	if want := "q :- R($0, y), T(y)\n"; shape("a") != want || shape("b") != want {
		t.Fatalf("shapes %q and %q, want %q", shape("a"), shape("b"), want)
	}
	if want := "q :- R('c', y), T(y)\n"; shape("c") != want {
		t.Fatalf("shape %q, want %q", shape("c"), want)
	}
	shaped, err := sp.CompileQuery(query("b"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"a", "c"} {
		i := rel.NewInstance()
		i.Add("S", rel.Const(c))
		p := shaped
		if c == "c" {
			if p, err = sp.CompileQuery(query(c)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := p.Bind(query(c)).Eval(i, nil, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := certain.Boolean(s, i, rel.NewInstance(), query(c), certain.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Certain != want.Certain || got.Certain != (c == "c") {
			t.Fatalf("S(%s): plan says certain=%v, chase %v\n%s", c, got.Certain, want.Certain, p)
		}
	}
}

// FuzzShapePlan runs checkShapePlan on fuzzed seeds.
func FuzzShapePlan(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkShapePlan(t, rand.New(rand.NewSource(seed)))
	})
}
