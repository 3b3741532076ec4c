package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qplan"
	"repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

// keyedSetting carries a target egd, which keeps it off the compiled
// certain-answer path (reason "target-deps") while remaining a valid
// setting for the enumeration path.
const keyedSetting = `
setting keyed
source E/2
target H/2
st: E(x,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
t: H(x,y), H(x,z) -> y = z
`

// TestCertainBatchEndToEnd drives /v1/certain-answers/batch over a
// compilable setting and checks the results agree with the singular
// endpoint, the compiled flag is set, and the plan-cache counters move.
func TestCertainBatchEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	source := "E(a,b). E(b,c). E(a,c)."
	queries := []string{
		"q1(x,y) :- H(x,y)",
		"q2(x) :- H(x,y)",
		"q3 :- H(x,y)",
	}
	batch, err := c.CertainBatch(ctx, client.CertainBatchRequest{
		SettingID: reg.ID, Source: source, Queries: queries,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(queries) {
		t.Fatalf("results = %d, want %d", len(batch.Results), len(queries))
	}
	if batch.CacheHit {
		t.Error("compiled batch should not have touched the chase cache")
	}
	for n, q := range queries {
		got := batch.Results[n]
		if !got.Compiled || got.FallbackReason != "" {
			t.Errorf("query %d not compiled: %+v", n, got)
		}
		single, err := c.CertainAnswers(ctx, client.CertainRequest{
			SettingID: reg.ID, Source: source, Query: q,
		})
		if err != nil {
			t.Fatalf("single query %d: %v", n, err)
		}
		if got.SolutionExists != single.SolutionExists || got.Certain != single.Certain ||
			len(got.Answers) != len(single.Answers) {
			t.Errorf("query %d: batch %+v != single %+v", n, got, single)
		}
		for k := range got.Answers {
			if strings.Join(got.Answers[k], ",") != strings.Join(single.Answers[k], ",") {
				t.Errorf("query %d row %d: %v != %v", n, k, got.Answers[k], single.Answers[k])
			}
		}
	}
	if batch.Results[0].Name != "q1" || batch.Results[2].Name != "q3" {
		t.Errorf("result names wrong: %+v", batch.Results)
	}
	// The batch compiled three plans; the singles reused every one.
	if misses := metricsValue(t, c, "pdxd_plan_cache_misses_total"); misses != 3 {
		t.Errorf("plan cache misses = %d, want 3", misses)
	}
	if hits := metricsValue(t, c, "pdxd_plan_cache_hits_total"); hits != 3 {
		t.Errorf("plan cache hits = %d, want 3", hits)
	}

	// A second identical batch is all plan-cache hits.
	if _, err := c.CertainBatch(ctx, client.CertainBatchRequest{
		SettingID: reg.ID, Source: source, Queries: queries,
	}); err != nil {
		t.Fatal(err)
	}
	if hits := metricsValue(t, c, "pdxd_plan_cache_hits_total"); hits != 6 {
		t.Errorf("plan cache hits after second batch = %d, want 6", hits)
	}

	// Eviction drops the setting's cached plans with it.
	if err := c.Evict(ctx, reg.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, example1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CertainAnswers(ctx, client.CertainRequest{
		SettingID: reg.ID, Source: source, Query: queries[0],
	}); err != nil {
		t.Fatal(err)
	}
	if misses := metricsValue(t, c, "pdxd_plan_cache_misses_total"); misses != 4 {
		t.Errorf("plan cache misses after evict+re-register = %d, want 4 (plan recompiled)", misses)
	}

	// Malformed batches are rejected before admission.
	if _, err := c.CertainBatch(ctx, client.CertainBatchRequest{SettingID: reg.ID, Source: source}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := c.CertainBatch(ctx, client.CertainBatchRequest{
		SettingID: reg.ID, Source: source, Queries: []string{"q(x) :- Nope(x)"},
	}); err == nil {
		t.Error("batch with unknown relation accepted")
	}
}

// TestCertainCompiledFallbackMetrics registers a setting outside the
// compilable fragment and checks certain-answer requests fall back to
// enumeration, surface the typed reason, and move the labelled
// fallback counter (singular and batch endpoints).
func TestCertainCompiledFallbackMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, keyedSetting)
	if err != nil {
		t.Fatal(err)
	}
	source := "E(a,b)."
	ca, err := c.CertainAnswers(ctx, client.CertainRequest{
		SettingID: reg.ID, Source: source, Query: "q(x,y) :- H(x,y)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if ca.Compiled || ca.FallbackReason != qplan.FallbackTargetDeps {
		t.Fatalf("fallback response: %+v, want reason %q", ca, qplan.FallbackTargetDeps)
	}
	if !ca.SolutionExists || len(ca.Answers) != 1 || ca.Answers[0][0] != "a" || ca.Answers[0][1] != "b" {
		t.Fatalf("enumeration answers: %+v, want [a b]", ca)
	}

	batch, err := c.CertainBatch(ctx, client.CertainBatchRequest{
		SettingID: reg.ID, Source: source,
		Queries: []string{"q1(x,y) :- H(x,y)", "q2 :- H(x,y)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !batch.CacheHit {
		t.Error("batch enumeration should reuse the chased artifact cached by the singular call")
	}
	for n, got := range batch.Results {
		if got.Compiled || got.FallbackReason != qplan.FallbackTargetDeps {
			t.Errorf("batch result %d: %+v, want enumeration fallback", n, got)
		}
	}
	if !batch.Results[1].Certain || !batch.Results[1].SolutionExists {
		t.Errorf("boolean fallback result: %+v, want certain", batch.Results[1])
	}

	series := `pdxd_certain_compiled_fallbacks_total{reason="` + qplan.FallbackTargetDeps + `"}`
	if v := metricsValue(t, c, series); v != 3 {
		t.Errorf("%s = %d, want 3 (one singular + two batch)", series, v)
	}
	if v := metricsValue(t, c, `pdxd_certain_compiled_fallbacks_total{reason="instance-nulls"}`); v != 0 {
		t.Errorf("unexpected instance-nulls fallbacks: %d", v)
	}
}

// TestPlanCacheRefusalsAndBound covers what the plan instance of the
// cache keeps beyond compiled plans: a compile refusal is a cached value
// (served as a hit, never recompiled), concurrent first lookups of one
// query compile once, and the count bound evicts the least recently
// used plan and counts it.
func TestPlanCacheRefusalsAndBound(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("refusal is a hit", func(t *testing.T) {
		// Every H atom has two origins (J or the st-tgd), so 13 atoms
		// unfold to 2^13 disjuncts, over the budget.
		atoms := make([]string, 13)
		for k := range atoms {
			atoms[k] = fmt.Sprintf("H(x%d,x%d)", k, k+1)
		}
		req := client.CertainRequest{SettingID: reg.ID, Source: "E(a,b).", Query: "q :- " + strings.Join(atoms, ", ")}
		hits, misses := s.plans.hits.Load(), s.plans.misses.Load()
		for n := 0; n < 2; n++ {
			ca, err := c.CertainAnswers(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if ca.Compiled || ca.FallbackReason != qplan.FallbackPlanSize {
				t.Fatalf("request %d: %+v, want fallback %q", n, ca, qplan.FallbackPlanSize)
			}
		}
		if got := s.plans.misses.Load() - misses; got != 1 {
			t.Errorf("refused query compiled %d times, want 1", got)
		}
		if got := s.plans.hits.Load() - hits; got != 1 {
			t.Errorf("second lookup of the refused query: %d hits, want 1", got)
		}
	})

	t.Run("single flight", func(t *testing.T) {
		refusal := &qplan.FallbackError{Reason: qplan.FallbackPlanSize}
		key := planKey(s.reg.Get(reg.ID).Plan, reg.ID, pde.UCQ{})
		meta := entryMeta{key: string(key[:]), settingID: reg.ID}
		var compiles atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, _, err := s.plans.getOrCompute(ctx, meta, func() (any, int64, error) {
					compiles.Add(1)
					time.Sleep(30 * time.Millisecond)
					return planResult{err: refusal}, 0, nil
				})
				if err != nil || !errors.Is(e.value.(planResult).err, refusal) {
					t.Errorf("lookup: %v, %v", e, err)
				}
			}()
		}
		wg.Wait()
		if got := compiles.Load(); got != 1 {
			t.Errorf("16 concurrent first lookups compiled %d times, want 1", got)
		}
	})

	t.Run("count bound", func(t *testing.T) {
		s.plans.evictMatching(func(*cacheEntry) bool { return true })
		evictions := s.plans.evictions.Load()
		insert := func(k int) {
			meta := entryMeta{key: fmt.Sprintf("plan-%d", k), settingID: reg.ID}
			s.plans.getOrCompute(ctx, meta, func() (any, int64, error) { return planResult{}, 0, nil })
		}
		for k := 0; k < planCacheMaxEntries; k++ {
			insert(k)
		}
		// Touch plan-0, so plan-1 is the least recently used.
		if s.plans.peek("plan-0") == nil {
			t.Fatal("plan-0 missing below the bound")
		}
		insert(planCacheMaxEntries)
		if n, _ := s.plans.stats(); n != planCacheMaxEntries {
			t.Errorf("%d plans cached, want the bound %d", n, planCacheMaxEntries)
		}
		if s.plans.peek("plan-1") != nil || s.plans.peek("plan-0") == nil {
			t.Error("the bound evicted another plan than the least recently used")
		}
		if got := s.plans.evictions.Load() - evictions; got != 1 {
			t.Errorf("plan evictions moved by %d, want 1", got)
		}
		if got := metricsValue(t, c, "pdxd_plan_cache_evictions_total"); got != s.plans.evictions.Load() {
			t.Errorf("pdxd_plan_cache_evictions_total = %d, want %d", got, s.plans.evictions.Load())
		}
	})
}

// TestPointQueriesShareOnePlan: certain point queries that differ only
// in their constant share one compiled plan, bound per request to its
// constant: 101 queries, one per person and one about nobody, cost one
// plan-cache miss, and each returns the person's group.
func TestPointQueriesShareOnePlan(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	setID := registerLAV(t, c)
	i, _ := workload.LAVInstance(100, true, rand.New(rand.NewSource(1)))
	inst, err := c.RegisterInstance(ctx, pde.FormatInstance(i))
	if err != nil {
		t.Fatal(err)
	}
	misses := s.plans.misses.Load()
	for k := 0; k <= 100; k++ {
		person := fmt.Sprintf("p%d", k)
		var want [][]string
		for _, idx := range i.Relation("Person").MatchingAt(0, pde.Const(person)) {
			want = append(want, []string{i.Relation("Person").TupleAt(idx)[1].String()})
		}
		ca, err := c.CertainAnswers(ctx, client.CertainRequest{
			SettingID: setID, SourceID: inst.ID, Query: fmt.Sprintf("q(g) :- Rec('%s', g, u)", person),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ca.Compiled || !ca.SolutionExists || !reflect.DeepEqual(ca.Answers, want) {
			t.Fatalf("%s: %+v, want compiled answers %v", person, ca, want)
		}
	}
	if got := s.plans.misses.Load() - misses; got != 1 {
		t.Fatalf("101 point queries of one shape compiled %d plans, want 1", got)
	}
}

// TestCachedPlanLookupAllocs: a cached point query's plan costs at
// most two allocations: the key is hashed in a stack buffer and looked
// up as bytes, and only the plan bound to the query's constant is new.
func TestCachedPlanLookupAllocs(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	setID := registerLAV(t, c)
	i, _ := workload.LAVInstance(20, true, rand.New(rand.NewSource(1)))
	inst, err := c.RegisterInstance(ctx, pde.FormatInstance(i))
	if err != nil {
		t.Fatal(err)
	}
	p := pairByID(t, s, setID, inst.ID)
	qs, err := pde.ParseQueries(lavPointQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(ctx, qs[0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Plan(ctx, qs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("a cached point-query plan lookup takes %v allocations, want at most 2", allocs)
	}
}
