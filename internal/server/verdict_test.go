package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/qplan"
	"repro/internal/snap"
	"repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

// lavPointQuery is a compiled point query over workload.LAVSetting.
const lavPointQuery = "q(g) :- Rec('p0', g, u)"

// pairByID resolves a by-ID (setting, source) pair with an empty target
// exactly as a solve request resolves it, for in-process dispatch.
func pairByID(t *testing.T, s *Server, settingID, sourceID string) *solvePair {
	t.Helper()
	var empty string
	var deadline int64
	rec := httptest.NewRecorder()
	p, ok := s.solveInput(rec, pairFields{&settingID, &empty, &sourceID, &empty, &empty, &deadline})
	if !ok {
		t.Fatalf("resolving (%s, %s): %s", settingID, sourceID, rec.Body)
	}
	return p
}

// tractableMemo returns the verdict memo of the pair's tractable cache
// entry, or ok == false when the pair has no completed entry.
func tractableMemo(s *Server, settingID, sourceID string) (memo uint32, ok bool) {
	e := s.cache.peek(snap.Key(settingID, sourceID, emptyInstance.ID, snap.KindTractable))
	if e == nil {
		return 0, false
	}
	return e.verdict.Load(), true
}

// facadeLAV is the façade's exists verdict and certain answer of
// lavPointQuery on source text src.
func facadeLAV(t *testing.T, src string) (bool, client.CertainBatchResult) {
	t.Helper()
	s := workload.LAVSetting()
	i, err := pde.ParseInstance(src)
	if err != nil {
		t.Fatal(err)
	}
	j, err := pde.ParseInstance("")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := pde.ExistsSolution(s, i, j)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := pde.ParseQueries(lavPointQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pde.CertainAnswers(s, i, j, qs[0], pde.Options{Compiled: true})
	if err != nil {
		t.Fatal(err)
	}
	return ex.Exists, client.CertainBatchResult{SolutionExists: res.SolutionExists, Certain: res.Certain,
		Answers: wireAnswers(res.Answers), Compiled: res.Compiled, FallbackReason: res.FallbackReason}
}

// certainLAV asks pdxd for lavPointQuery by source ID.
func certainLAV(t *testing.T, c *client.Client, settingID, sourceID string) client.CertainBatchResult {
	t.Helper()
	got, err := c.CertainAnswers(context.Background(), client.CertainRequest{SettingID: settingID, SourceID: sourceID, Query: lavPointQuery})
	if err != nil {
		t.Fatalf("certain-answers on %s: %v", sourceID, err)
	}
	return batchResult(got)
}

// batchResult is the unnamed batch-result form of a certain response.
func batchResult(r client.CertainResponse) client.CertainBatchResult {
	return client.CertainBatchResult{SolutionExists: r.SolutionExists, Certain: r.Certain,
		Answers: r.Answers, Compiled: r.Compiled, FallbackReason: r.FallbackReason}
}

// registerLAV registers workload.LAVSetting and returns its ID.
func registerLAV(t *testing.T, c *client.Client) string {
	t.Helper()
	reg, err := c.Register(context.Background(), pde.FormatSetting(workload.LAVSetting()))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Strategy != string(pde.StrategyTractable) {
		t.Fatalf("LAV setting classified %q, want tractable", reg.Strategy)
	}
	return reg.ID
}

// TestVerdictMemoKeepsNullsGate: a source with a labeled null, solved
// first so its pair holds a memoized verdict, still takes the
// instance-nulls fallback on certain-answers, exactly as the façade.
func TestVerdictMemoKeepsNullsGate(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	setID := registerLAV(t, c)
	const src = "Person(p0, g1). Member(p0, g1). Person(_1, g1). Member(_1, g1)."
	inst, err := c.RegisterInstance(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	wantExists, want := facadeLAV(t, src)
	if want.Compiled || want.FallbackReason != qplan.FallbackNulls {
		t.Fatalf("façade took %+v, want the %s fallback", want, qplan.FallbackNulls)
	}
	res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: setID, SourceID: inst.ID})
	if err != nil || res.Exists != wantExists {
		t.Fatalf("exists-solution: %+v, %v; façade says %v", res, err, wantExists)
	}
	if memo, ok := tractableMemo(s, setID, inst.ID); !ok || memo == verdictUnknown {
		t.Fatalf("exists-solution left no memo (entry %v, memo %d)", ok, memo)
	}
	if got := certainLAV(t, c, setID, inst.ID); !reflect.DeepEqual(got, want) {
		t.Errorf("certain after a memoized solve: daemon %+v, façade %+v", got, want)
	}
	b, err := c.CertainBatch(ctx, client.CertainBatchRequest{SettingID: setID, SourceID: inst.ID, Queries: []string{lavPointQuery}})
	if err != nil {
		t.Fatal(err)
	}
	got := b.Results[0]
	got.Name = ""
	if !reflect.DeepEqual(got, want) {
		t.Errorf("certain batch after a memoized solve: daemon %+v, façade %+v", got, want)
	}
	if v := metricsValue(t, c, `pdxd_certain_compiled_fallbacks_total{reason="instance-nulls"}`); v != 2 {
		t.Errorf("instance-nulls fallbacks = %d, want 2", v)
	}
}

// TestVerdictMemoSkipsCanceledVerdict: an exists-solution whose
// deadline has passed by the time the verdict runs (the trace is
// already cached) fails without storing a memo, and the next request
// decides the verdict afresh.
func TestVerdictMemoSkipsCanceledVerdict(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	setID := registerLAV(t, c)
	i, _ := workload.LAVInstance(200, false, rand.New(rand.NewSource(3)))
	inst, err := c.RegisterInstance(ctx, pde.FormatInstance(i))
	if err != nil {
		t.Fatal(err)
	}
	// A witness solve caches the trace but leaves the verdict unknown.
	if w, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: setID, SourceID: inst.ID, Witness: true}); err != nil || w.Exists {
		t.Fatalf("witness solve: %+v, %v; want no solution", w, err)
	}
	if memo, ok := tractableMemo(s, setID, inst.ID); !ok || memo != verdictUnknown {
		t.Fatalf("after a witness solve: entry %v, memo %d; want an entry with no memo", ok, memo)
	}

	p := pairByID(t, s, setID, inst.ID)
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	_, err = pde.SolveFrom(expired, p.c.Setting, p.src.Inst, p.tgt.Inst, pde.StrategyTractable, false, p, s.options(0))
	if !errors.Is(err, pde.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("verdict past its deadline: err = %v, want a deadline cancellation", err)
	}
	if !p.hit {
		t.Fatal("the expired solve did not reach the cached trace")
	}
	if memo, _ := tractableMemo(s, setID, inst.ID); memo != verdictUnknown {
		t.Fatalf("a canceled verdict was memoized: %d", memo)
	}

	res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: setID, SourceID: inst.ID})
	if err != nil || res.Exists || !res.CacheHit {
		t.Fatalf("exists-solution after the canceled one: %+v, %v; want a cached no-solution", res, err)
	}
	if memo, _ := tractableMemo(s, setID, inst.ID); memo != verdictNone {
		t.Fatalf("memo after a successful verdict = %d, want %d", memo, verdictNone)
	}
}

// TestVerdictMemoAppendDecidesAfresh: append migration gives each child
// its own entry with an unknown verdict, so an append that flips SOL(P)
// is decided on the child, not inherited from the parent.
func TestVerdictMemoAppendDecidesAfresh(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	setID := registerLAV(t, c)
	src := "Person(p0, g0). Member(p0, g0)."
	inst, err := c.RegisterInstance(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	id := inst.ID
	for step, facts := range []string{
		"",
		"Person(p1, g0). Member(p1, g0).", // still solvable
		"Person(p2, g1).",                 // p2 is no member: flips to no solution
		"Member(p2, g1).",                 // flips back
	} {
		if facts != "" {
			app, err := c.AppendInstance(ctx, id, client.AppendRequest{Facts: facts})
			if err != nil || app.Migrated != 1 {
				t.Fatalf("step %d: append: %+v, %v; want the entry migrated", step, app, err)
			}
			id, src = app.ID, src+" "+facts
			if memo, ok := tractableMemo(s, setID, id); !ok || memo != verdictUnknown {
				t.Fatalf("step %d: migrated entry %v with memo %d; want an unknown verdict", step, ok, memo)
			}
		}
		wantExists, want := facadeLAV(t, src)
		// Certain first reads the migrated entry, counting neither a hit
		// nor a miss; exists then reads the memo.
		hits, misses := metricsValue(t, c, "pdxd_chase_cache_hits_total"), metricsValue(t, c, "pdxd_chase_cache_misses_total")
		if got := certainLAV(t, c, setID, id); !reflect.DeepEqual(got, want) {
			t.Errorf("step %d: certain: daemon %+v, façade %+v", step, got, want)
		}
		if h, m := metricsValue(t, c, "pdxd_chase_cache_hits_total"), metricsValue(t, c, "pdxd_chase_cache_misses_total"); h != hits || m != misses {
			t.Errorf("step %d: certain moved the chase-cache counters: hits %d → %d, misses %d → %d", step, hits, h, misses, m)
		}
		res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: setID, SourceID: id})
		if err != nil || res.Exists != wantExists {
			t.Fatalf("step %d: exists-solution: %+v, %v; façade says %v", step, res, err, wantExists)
		}
		if step == 2 && wantExists {
			t.Fatal("step 2 was meant to flip the verdict")
		}
	}
}

// TestVerdictMemoGoesWithEvictedInstance: evicting an instance drops
// its entry and memo; a re-registered copy starts cold.
func TestVerdictMemoGoesWithEvictedInstance(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	setID := registerLAV(t, c)
	const src = "Person(p0, g0). Member(p0, g0). Person(p1, g0)."
	inst, err := c.RegisterInstance(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: setID, SourceID: inst.ID}); err != nil || res.Exists {
		t.Fatalf("exists-solution: %+v, %v", res, err)
	}
	if memo, _ := tractableMemo(s, setID, inst.ID); memo != verdictNone {
		t.Fatalf("memo = %d, want %d", memo, verdictNone)
	}
	if err := c.EvictInstance(ctx, inst.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := tractableMemo(s, setID, inst.ID); ok {
		t.Fatal("the evicted instance's entry, and its memo, survived")
	}
	if _, err := c.RegisterInstance(ctx, src); err != nil {
		t.Fatal(err)
	}
	_, want := facadeLAV(t, src)
	if got := certainLAV(t, c, setID, inst.ID); !reflect.DeepEqual(got, want) {
		t.Errorf("certain after re-registering: daemon %+v, façade %+v", got, want)
	}
	if _, ok := tractableMemo(s, setID, inst.ID); ok {
		t.Fatal("a certain request created a tractable entry")
	}
	res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: setID, SourceID: inst.ID})
	if err != nil || res.Exists || res.CacheHit {
		t.Fatalf("exists-solution after re-registering: %+v, %v; want a cold no-solution", res, err)
	}
}

// TestVerdictMemoConcurrentFirstRequests: mixed exists-solution and
// certain requests racing on one fresh pair all agree with the façade.
func TestVerdictMemoConcurrentFirstRequests(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 16})
	ctx := context.Background()
	setID := registerLAV(t, c)
	for _, solvable := range []bool{true, false} {
		i, _ := workload.LAVInstance(400, solvable, rand.New(rand.NewSource(5)))
		src := pde.FormatInstance(i)
		inst, err := c.RegisterInstance(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		wantExists, want := facadeLAV(t, src)
		var wg sync.WaitGroup
		for w := 0; w < 12; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if w%2 == 0 {
					res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: setID, SourceID: inst.ID})
					if err != nil || res.Exists != wantExists {
						t.Errorf("solvable=%v: exists-solution %+v, %v; façade says %v", solvable, res, err, wantExists)
					}
					return
				}
				got, err := c.CertainAnswers(ctx, client.CertainRequest{SettingID: setID, SourceID: inst.ID, Query: lavPointQuery})
				if err != nil {
					t.Errorf("solvable=%v: certain: %v", solvable, err)
					return
				}
				if g := batchResult(got); !reflect.DeepEqual(g, want) {
					t.Errorf("solvable=%v: certain: daemon %+v, façade %+v", solvable, g, want)
				}
			}()
		}
		wg.Wait()
		wantMemo := verdictNone
		if wantExists {
			wantMemo = verdictExists
		}
		if memo, _ := tractableMemo(s, setID, inst.ID); memo != wantMemo {
			t.Errorf("solvable=%v: memo = %d, want %d", solvable, memo, wantMemo)
		}
	}
}

// TestWarmVerdictAllocsIndependentOfSize pins the memo structurally: on
// a cached LAV pair, warm exists-solution and compiled certain-answers
// allocate the same at n=200 and n=1600, while a certain request before
// any exists-solution runs the Σts probes: the pair has no tractable
// cache entry after it, so no memo can have decided it, and it
// allocates more than the memo path.
func TestWarmVerdictAllocsIndependentOfSize(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	setID := registerLAV(t, c)
	qs, err := pde.ParseQueries(lavPointQuery)
	if err != nil {
		t.Fatal(err)
	}
	type allocs struct{ probe, exists, certain float64 }
	measure := func(n int) allocs {
		i, _ := workload.LAVInstance(n, true, rand.New(rand.NewSource(int64(n))))
		inst, err := c.RegisterInstance(ctx, pde.FormatInstance(i))
		if err != nil {
			t.Fatal(err)
		}
		p := pairByID(t, s, setID, inst.ID)
		certainOnce := func() {
			res, err := s.certain(ctx, p, qs)
			if err != nil || !res[0].Compiled || !res[0].SolutionExists {
				t.Fatalf("n=%d: certain: %+v, %v", n, res, err)
			}
		}
		existsOnce := func() {
			res, err := pde.SolveFrom(ctx, p.c.Setting, p.src.Inst, p.tgt.Inst, pde.StrategyTractable, false, p, s.options(0))
			if err != nil || !res.Exists {
				t.Fatalf("n=%d: exists: %+v, %v", n, res, err)
			}
		}
		var a allocs
		a.probe = testing.AllocsPerRun(3, certainOnce)
		if _, ok := tractableMemo(s, setID, inst.ID); ok {
			t.Fatalf("n=%d: a probe-path certain request left a tractable cache entry", n)
		}
		existsOnce() // chases the pair and memoizes its verdict
		if memo, _ := tractableMemo(s, setID, inst.ID); memo != verdictExists {
			t.Fatalf("n=%d: the first exists-solution left memo %d", n, memo)
		}
		a.exists = testing.AllocsPerRun(20, existsOnce)
		a.certain = testing.AllocsPerRun(20, certainOnce)
		return a
	}
	small, large := measure(200), measure(1600)
	t.Logf("allocs/op n=200 %+v, n=1600 %+v", small, large)
	const margin = 4
	for _, m := range []struct {
		name         string
		small, large float64
	}{{"warm exists-solution", small.exists, large.exists}, {"memoized certain-answers", small.certain, large.certain}} {
		if d := m.large - m.small; d > margin || d < -margin {
			t.Errorf("%s allocates %v at n=200 and %v at n=1600; the memo should make it size-independent", m.name, m.small, m.large)
		}
	}
	if small.probe <= small.certain+margin {
		t.Errorf("at n=200 the probe path (%v allocs) is no dearer than the memo path (%v)", small.probe, small.certain)
	}
}
