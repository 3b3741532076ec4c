package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dep"
	"repro/internal/oracle"
	"repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

// parityCase is one random input of the façade ≡ pdxd property.
type parityCase struct {
	setting  string
	src, tgt string // canonical instance text
	queries  []pde.UCQ
}

// oracleQueries returns one Boolean and one open query over the target
// schema {T/2} of oracle.RandomSetting.
func oracleQueries(rng *rand.Rand) []pde.UCQ {
	x, y, z := dep.Var("x"), dep.Var("y"), dep.Var("z")
	bodies := [][]dep.Atom{
		{dep.NewAtom("T", x, y)},
		{dep.NewAtom("T", x, y), dep.NewAtom("T", y, z)},
		{dep.NewAtom("T", x, x)},
		{dep.NewAtom("T", x, dep.Cst("a"))},
	}
	return []pde.UCQ{
		{{Name: "qb", Body: bodies[rng.Intn(len(bodies))]}},
		{{Name: "qo", Head: []string{"x"}, Body: bodies[rng.Intn(len(bodies))]}},
	}
}

// randomParityCases draws n cases: even ones from the oracle generators
// (generic and tractable strategies, Σt, disjunctive Σts — the
// enumeration fallback), odd ones from the compilable generators (the
// compiled path).
func randomParityCases(n int) []parityCase {
	out := make([]parityCase, n)
	for k := range out {
		rng := rand.New(rand.NewSource(int64(4200 + k)))
		var s *pde.Setting
		var i, j *pde.Instance
		var qs []pde.UCQ
		if k%2 == 0 {
			s = oracle.RandomSetting(rng)
			i, j = oracle.RandomInstance(rng)
			qs = oracleQueries(rng)
		} else {
			s = workload.RandomCompilableSetting(rng)
			i, j = workload.RandomCompilableInstance(rng)
			qs = []pde.UCQ{workload.RandomTargetQuery(rng, true), workload.RandomTargetQuery(rng, false)}
		}
		s.Name = fmt.Sprintf("parity%d", k)
		out[k] = parityCase{setting: pde.FormatSetting(s), src: pde.FormatInstance(i), tgt: pde.FormatInstance(j), queries: qs}
	}
	return out
}

// queryText renders a UCQ in the wire syntax, one disjunct per line.
func queryText(q pde.UCQ) string {
	lines := make([]string, len(q))
	for k, cq := range q {
		lines[k] = cq.String()
	}
	return strings.Join(lines, "\n")
}

// TestFacadeParityRandom checks that pdxd answers exactly what the pde
// façade answers on random settings and instances, sent inline and by
// ID: /v1/exists-solution (witness on and off) against
// ExistsSolution/FindSolution, and /v1/certain-answers and its batch
// form against CertainAnswers with Options.Compiled, each
// sent both before and after the exists-solution requests.
func TestFacadeParityRandom(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	cases := randomParityCases(48)
	var refused, served int
	for k, tc := range cases {
		reg, err := c.Register(ctx, tc.setting)
		if err != nil {
			refused++
			continue
		}
		served++
		// The façade runs on the parses the daemon runs on.
		s, err := pde.ParseSetting(tc.setting)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		i, err := pde.ParseInstance(tc.src)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		j, err := pde.ParseInstance(tc.tgt)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		srcReg, err := c.RegisterInstance(ctx, tc.src)
		if err != nil {
			t.Fatalf("case %d: register source: %v", k, err)
		}
		tgtReg, err := c.RegisterInstance(ctx, tc.tgt)
		if err != nil {
			t.Fatalf("case %d: register target: %v", k, err)
		}

		exists, err := pde.ExistsSolution(s, i, j)
		if err != nil {
			t.Fatalf("case %d: façade ExistsSolution: %v", k, err)
		}
		found, err := pde.FindSolution(s, i, j)
		if err != nil {
			t.Fatalf("case %d: façade FindSolution: %v", k, err)
		}
		want := make([]client.CertainBatchResult, len(tc.queries))
		texts := make([]string, len(tc.queries))
		for n, q := range tc.queries {
			res, err := pde.CertainAnswers(s, i, j, q, pde.Options{Compiled: true})
			if err != nil {
				t.Fatalf("case %d: façade certain %s: %v", k, q[0].Name, err)
			}
			want[n] = client.CertainBatchResult{
				Name: q[0].Name, SolutionExists: res.SolutionExists, Certain: res.Certain,
				Answers: wireAnswers(res.Answers), Compiled: res.Compiled, FallbackReason: res.FallbackReason,
			}
			texts[n] = queryText(q)
		}

		for _, byID := range []bool{false, true} {
			name := fmt.Sprintf("case %d (by ID %v, %s)", k, byID, tc.setting)
			req := client.SolveRequest{SettingID: reg.ID, Source: tc.src, Target: tc.tgt}
			if byID {
				req = client.SolveRequest{SettingID: reg.ID, SourceID: srcReg.ID, TargetID: tgtReg.ID}
			}
			// Certain and batch requests go both before the exists
			// requests (the Σts probes, unless an earlier pass cached the
			// pair's trace) and after them (the memoized verdict).
			checkCertain := func(when string) {
				for n, text := range texts {
					creq := client.CertainRequest{SettingID: req.SettingID, Source: req.Source, SourceID: req.SourceID, Target: req.Target, TargetID: req.TargetID, Query: text}
					got, err := c.CertainAnswers(ctx, creq)
					if err != nil {
						t.Fatalf("%s: certain-answers %q %s: %v", name, text, when, err)
					}
					gotRes := client.CertainBatchResult{
						Name: want[n].Name, SolutionExists: got.SolutionExists, Certain: got.Certain,
						Answers: got.Answers, Compiled: got.Compiled, FallbackReason: got.FallbackReason,
					}
					if !reflect.DeepEqual(gotRes, want[n]) {
						t.Errorf("%s: certain-answers %q %s: daemon %+v, façade %+v", name, text, when, gotRes, want[n])
					}
				}
				breq := client.CertainBatchRequest{SettingID: req.SettingID, Source: req.Source, SourceID: req.SourceID, Target: req.Target, TargetID: req.TargetID, Queries: texts}
				batch, err := c.CertainBatch(ctx, breq)
				if err != nil {
					t.Fatalf("%s: certain-answers batch %s: %v", name, when, err)
				}
				if !reflect.DeepEqual(batch.Results, want) {
					t.Errorf("%s: certain-answers batch %s: daemon %+v, façade %+v", name, when, batch.Results, want)
				}
			}
			checkCertain("before exists-solution")
			for _, witness := range []bool{false, true} {
				req.Witness = witness
				got, err := c.ExistsSolution(ctx, req)
				if err != nil {
					t.Fatalf("%s: exists-solution: %v", name, err)
				}
				ref := exists
				if witness {
					ref = found
				}
				wantSol := ""
				if witness && ref.Solution != nil {
					wantSol = pde.FormatInstance(ref.Solution)
				}
				if got.Exists != ref.Exists || got.Strategy != string(ref.Strategy) || got.Nodes != ref.Nodes || got.Solution != wantSol {
					t.Errorf("%s witness=%v: daemon (exists=%v strategy=%s nodes=%d witness=%q), façade (exists=%v strategy=%s nodes=%d witness=%q)",
						name, witness, got.Exists, got.Strategy, got.Nodes, got.Solution, ref.Exists, ref.Strategy, ref.Nodes, wantSol)
				}
			}
			checkCertain("after exists-solution")
		}
	}
	t.Logf("%d cases served, %d refused at registration", served, refused)
	if served*4 < len(cases)*3 {
		t.Fatalf("only %d of %d random settings registered (%d refused); the property needs most cases served", served, len(cases), refused)
	}
}
