package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/snap"
	"repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

func TestChaseCacheSingleFlight(t *testing.T) {
	cc := newCache(0, 16)
	meta := entryMeta{key: "k", settingID: "s", kind: snap.KindTractable, src: &StoredInstance{ID: "i"}, tgt: &StoredInstance{ID: "j"}}
	var computes atomic.Int32
	var hits atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, hit, err := cc.getOrCompute(context.Background(), meta, func() (any, int64, error) {
				computes.Add(1)
				time.Sleep(30 * time.Millisecond)
				return "artifact", 8, nil
			})
			if err != nil || e.value != "artifact" {
				t.Errorf("getOrCompute: %v, %v", e, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", computes.Load())
	}
	if hits.Load() != 15 {
		t.Errorf("%d hits, want 15 (everyone but the leader)", hits.Load())
	}
}

func TestChaseCacheFailedComputeNotRetained(t *testing.T) {
	cc := newCache(0, 16)
	meta := entryMeta{key: "k"}
	boom := errors.New("budget exhausted")
	if _, _, err := cc.getOrCompute(context.Background(), meta, func() (any, int64, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want leader failure, got %v", err)
	}
	if n, _ := cc.stats(); n != 0 {
		t.Fatalf("failed compute was retained: %d entries", n)
	}
	// A failure that reports bytes is never charged, so it uncharges
	// nothing either.
	if _, _, err := cc.getOrCompute(context.Background(), meta, func() (any, int64, error) {
		return nil, 100, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want leader failure, got %v", err)
	}
	if n, bytes := cc.stats(); n != 0 || bytes != 0 {
		t.Fatalf("after a failed compute reporting 100 B: %d entries / %d bytes, want 0 / 0", n, bytes)
	}
	// The next requester becomes the leader and can succeed.
	e, hit, err := cc.getOrCompute(context.Background(), meta, func() (any, int64, error) {
		return "ok", 2, nil
	})
	if err != nil || hit || e.value != "ok" {
		t.Fatalf("recompute after failure: e=%v hit=%v err=%v", e, hit, err)
	}
}

func TestChaseCacheLRUBounds(t *testing.T) {
	cc := newCache(0, 2)
	for _, k := range []string{"a", "b", "c"} {
		cc.getOrCompute(context.Background(), entryMeta{key: k}, func() (any, int64, error) {
			return k, 100, nil
		})
	}
	n, bytes := cc.stats()
	if n != 2 || bytes != 200 {
		t.Errorf("after 3 inserts with maxEntries=2: %d entries / %d bytes, want 2 / 200", n, bytes)
	}
	// "a" (least recently used) is gone; a re-get recomputes it.
	_, hit, _ := cc.getOrCompute(context.Background(), entryMeta{key: "a"}, func() (any, int64, error) {
		return "a", 100, nil
	})
	if hit {
		t.Error("evicted entry reported a hit")
	}
	if got := cc.evictions.Load(); got < 1 {
		t.Errorf("evictions counter = %d, want ≥1", got)
	}

	// Byte budget: an insert that blows the bound evicts older entries
	// but spares itself.
	cc2 := newCache(150, 0)
	cc2.put(entryMeta{key: "x"}, "x", 100)
	cc2.put(entryMeta{key: "y"}, "y", 120)
	n, bytes = cc2.stats()
	if n != 1 || bytes != 120 {
		t.Errorf("byte bound: %d entries / %d bytes, want 1 / 120 (y only)", n, bytes)
	}
}

// metricsValue scrapes /metrics and returns the value of an exact
// (unlabelled) series.
func metricsValue(t *testing.T, c *client.Client, name string) int64 {
	t.Helper()
	resp, err := http.Get(c.Base() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestCacheHitAppendEndToEnd walks the full tentpole flow over HTTP:
// register instances, solve twice (second from cache), append, solve
// the appended instance (cache migrated), and watch the counters move.
func TestCacheHitAppendEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.RegisterInstance(ctx, "E(a,b). E(b,c).")
	if err != nil {
		t.Fatalf("register instance: %v", err)
	}
	if !inst.Created || inst.Facts != 2 || !strings.HasPrefix(inst.ID, "sha256:") {
		t.Fatalf("unexpected instance registration: %+v", inst)
	}
	again, err := c.RegisterInstance(ctx, "E(b,c).\nE(a,b).")
	if err != nil || again.Created || again.ID != inst.ID {
		t.Fatalf("instance registration not canonical/idempotent: %+v, %v", again, err)
	}

	// Cold then warm: same verdict, second solve from cache.
	cold, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: inst.ID})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: inst.ID})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || !warm.CacheHit || cold.Exists != warm.Exists || warm.Exists {
		t.Fatalf("cold=%+v warm=%+v (path has no solution; warm must be a hit)", cold, warm)
	}
	if metricsValue(t, c, "pdxd_chase_cache_hits_total") < 1 {
		t.Error("hit counter did not move")
	}

	// Append the closing edge: the composed pair (a,c) gets a real edge,
	// so the appended instance has a solution. Its solve starts from the
	// migrated cache entry.
	app, err := c.AppendInstance(ctx, inst.ID, client.AppendRequest{Facts: "E(a,c). E(a,b)."})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if app.Added != 1 || app.Facts != 3 || app.Parent != inst.ID || app.ID == inst.ID {
		t.Fatalf("append bookkeeping: %+v", app)
	}
	if app.Migrated != 1 || app.Resumed != 1 || app.Fallbacks != 0 {
		t.Fatalf("migration: %+v, want 1 entry resumed incrementally", app)
	}
	res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: app.ID, Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists || !res.CacheHit || !strings.Contains(res.Solution, "H(a, c)") {
		t.Fatalf("solve after append: %+v, want cached hit with H(a, c) witness", res)
	}
	if metricsValue(t, c, "pdxd_chase_cache_resumes_total") != 1 {
		t.Error("resume counter did not move")
	}

	// Appending nothing new is a no-op returning the same instance.
	noop, err := c.AppendInstance(ctx, app.ID, client.AppendRequest{Facts: "E(a,b)."})
	if err != nil || noop.ID != app.ID || noop.Added != 0 || noop.Migrated != 0 {
		t.Fatalf("no-op append: %+v, %v", noop, err)
	}

	// Certain answers by ID: this setting is in the compilable
	// fragment, so both calls run the compiled plan and never chase
	// (SOL(P) comes from the pair's cached verdict, which counts no
	// hit); the second is served by the cached query plan.
	ca1, err := c.CertainAnswers(ctx, client.CertainRequest{SettingID: reg.ID, SourceID: app.ID, Query: "q(x,y) :- H(x,y)"})
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := c.CertainAnswers(ctx, client.CertainRequest{SettingID: reg.ID, SourceID: app.ID, Query: "q(x,y) :- H(x,y)"})
	if err != nil {
		t.Fatal(err)
	}
	if !ca1.Compiled || !ca2.Compiled || ca1.CacheHit || ca2.CacheHit ||
		len(ca2.Answers) != 1 || ca2.Answers[0][0] != "a" || ca2.Answers[0][1] != "c" {
		t.Fatalf("certain: first=%+v second=%+v, want compiled answers [a c] with no chase", ca1, ca2)
	}
	if metricsValue(t, c, "pdxd_plan_cache_misses_total") != 1 || metricsValue(t, c, "pdxd_plan_cache_hits_total") != 1 {
		t.Error("plan cache counters did not record one miss then one hit")
	}

	// Instance listing and health see all three instances.
	list, err := c.Instances(ctx)
	if err != nil || len(list.Instances) != 2 {
		t.Fatalf("instances: %+v, %v", list, err)
	}
	h, err := c.Health(ctx)
	if err != nil || h.Instances != 2 {
		t.Fatalf("health instances: %+v, %v", h, err)
	}

	// Evicting the appended instance drops its cache entries.
	if err := c.EvictInstance(ctx, app.ID); err != nil {
		t.Fatal(err)
	}
	if got := metricsValue(t, c, "pdxd_chase_cache_entries"); got != 1 {
		t.Errorf("cache entries after instance evict = %d, want 1 (only the base entry)", got)
	}
	_, err = c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: app.ID})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("solve by evicted instance ID: want 404, got %v", err)
	}

	// Evicting the setting drops the remaining entry.
	if err := c.Evict(ctx, reg.ID); err != nil {
		t.Fatal(err)
	}
	if got := metricsValue(t, c, "pdxd_chase_cache_entries"); got != 0 {
		t.Errorf("cache entries after setting evict = %d, want 0", got)
	}
}

// TestAppendArityMismatchIs400: a batch that uses a relation at another
// arity than the base instance is rejected with a typed 400 before
// admission — with every slot taken it still gets 400, not 429 — and
// the daemon keeps serving: the base is unchanged and a well-formed
// append succeeds afterwards.
func TestAppendArityMismatchIs400(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1})
	ctx := context.Background()
	base, err := c.RegisterInstance(ctx, "E(a,b).")
	if err != nil {
		t.Fatal(err)
	}
	s.sem <- struct{}{} // take the only admission slot
	_, err = c.AppendInstance(ctx, base.ID, client.AppendRequest{Facts: "E(a,b,c)."})
	<-s.sem
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != client.CodeBadRequest {
		t.Fatalf("arity-mismatched append: want a 400 %s, got %v", client.CodeBadRequest, err)
	}
	if !strings.Contains(apiErr.Message, "E") || !strings.Contains(apiErr.Message, "arity") {
		t.Errorf("error %q does not name the relation and its arity", apiErr.Message)
	}

	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("daemon stopped answering after the rejected append: %+v, %v", h, err)
	}
	list, err := c.Instances(ctx)
	if err != nil || len(list.Instances) != 1 || list.Instances[0].ID != base.ID || list.Instances[0].Facts != 1 {
		t.Fatalf("registry after the rejected append: %+v, %v", list, err)
	}
	app, err := c.AppendInstance(ctx, base.ID, client.AppendRequest{Facts: "E(b,c). F(a,b,c)."})
	if err != nil || app.Added != 2 || app.Facts != 3 || app.Parent != base.ID {
		t.Fatalf("well-formed append after the rejected one: %+v, %v", app, err)
	}
}

// TestEmptySideIsShared: a side a request leaves out resolves to one
// shared frozen instance, without allocating, under the content ID and
// text that parsing "" gives.
func TestEmptySideIsShared(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	a, okA := s.resolveInstance(nil, "source", "", "")
	b, okB := s.resolveInstance(nil, "target", "", "")
	if !okA || !okB || a != b {
		t.Fatalf("empty sides resolve to %p and %p, want one shared instance", a, b)
	}
	parsed, err := compileInstance("")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != parsed.ID || a.Text != parsed.Text || a.Facts != 0 || !a.Inst.Frozen() || a.Parent != "" {
		t.Fatalf("shared empty instance %+v differs from the parsed one %+v", a, parsed)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if si, ok := s.resolveInstance(nil, "target", "", ""); !ok || si != a {
			t.Fatal("empty side resolved to another instance")
		}
	})
	if allocs != 0 {
		t.Fatalf("resolving an empty side allocates %.1f times, want 0", allocs)
	}
}

func TestSolveRejectsInlinePlusID(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.RegisterInstance(ctx, "E(a,a).")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ExistsSolution(ctx, client.SolveRequest{
		SettingID: reg.ID, Source: "E(a,a).", SourceID: inst.ID,
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("inline+ID source: want 400, got %v", err)
	}
	_, err = c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: "sha256:feed"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown instance ID: want 404, got %v", err)
	}
}

// cacheCase is one setting of the equivalence property test, with the
// relations random facts are drawn from per side.
type cacheCase struct {
	setting string
	srcRels []relDef
	tgtRels []relDef
	query   string
}

type relDef struct {
	name  string
	arity int
}

func randFactText(rng *rand.Rand, rels []relDef, n int) string {
	var b strings.Builder
	for k := 0; k < n; k++ {
		r := rels[rng.Intn(len(rels))]
		b.WriteString(r.name)
		b.WriteString("(")
		for a := 0; a < r.arity; a++ {
			if a > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "c%d", rng.Intn(4))
		}
		b.WriteString("). ")
	}
	return b.String()
}

func fmtAnswers(a [][]string) string {
	rows := make([]string, 0, len(a))
	for _, row := range a {
		rows = append(rows, strings.Join(row, ","))
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

// TestCacheEquivalenceRandom is the tentpole's correctness property:
// across random workloads and random append batches (including
// egd-triggered full re-chase fallbacks), verdicts and certain answers
// computed from cached/migrated fixpoints must equal a cache-disabled
// server computing from scratch.
func TestCacheEquivalenceRandom(t *testing.T) {
	warmSrv, warm := newTestServer(t, Config{})
	_, cold := newTestServer(t, Config{CacheMaxEntries: -1})
	ctx := context.Background()
	_ = warmSrv

	cases := []cacheCase{
		{
			setting: example1,
			srcRels: []relDef{{"E", 2}},
			tgtRels: []relDef{{"H", 2}},
			query:   "q(x,y) :- H(x,y)",
		},
		{
			setting: `
setting gensym
source A/1, B/2
target T/2
st: A(x) -> T(x,x)
st: B(x,y) -> T(x,y)
ts: T(x,y) -> B(x,y)
t: T(x,y) -> T(y,x)
`,
			srcRels: []relDef{{"A", 1}, {"B", 2}},
			tgtRels: []relDef{{"T", 2}},
			query:   "q(x,y) :- T(x,y)",
		},
		{
			setting: `
setting egdkey
source B/2
target T/2
st: B(x,y) -> T(x,y)
ts: T(x,y) -> B(x,y)
t: T(x,y), T(x,z) -> y = z
`,
			srcRels: []relDef{{"B", 2}},
			tgtRels: []relDef{{"T", 2}},
			query:   "q(x,y) :- T(x,y)",
		},
	}
	ids := make([]string, len(cases))
	for k, tc := range cases {
		reg, err := warm.Register(ctx, tc.setting)
		if err != nil {
			t.Fatalf("case %d register (warm): %v", k, err)
		}
		if _, err := cold.Register(ctx, tc.setting); err != nil {
			t.Fatalf("case %d register (cold): %v", k, err)
		}
		ids[k] = reg.ID
	}

	var resumes, fallbacks int
	const trials = 51
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		k := trial % len(cases)
		tc, id := cases[k], ids[k]

		srcText := randFactText(rng, tc.srcRels, 3+rng.Intn(4))
		tgtText := randFactText(rng, tc.tgtRels, 1+rng.Intn(2))
		srcInst, err := warm.RegisterInstance(ctx, srcText)
		if err != nil {
			t.Fatalf("trial %d: register source: %v", trial, err)
		}
		tgtInst, err := warm.RegisterInstance(ctx, tgtText)
		if err != nil {
			t.Fatalf("trial %d: register target: %v", trial, err)
		}
		srcID, tgtID := srcInst.ID, tgtInst.ID

		// Warm the cache, then run two append rounds: round 0 grows the
		// source, round 1 grows the target.
		if _, err := warm.ExistsSolution(ctx, client.SolveRequest{SettingID: id, SourceID: srcID, TargetID: tgtID}); err != nil {
			t.Fatalf("trial %d: warmup solve: %v", trial, err)
		}
		if _, err := warm.CertainAnswers(ctx, client.CertainRequest{SettingID: id, SourceID: srcID, TargetID: tgtID, Query: tc.query}); err != nil {
			t.Fatalf("trial %d: warmup certain: %v", trial, err)
		}
		for round := 0; round < 2; round++ {
			var batch string
			if round == 0 {
				batch = randFactText(rng, tc.srcRels, 1+rng.Intn(3))
				app, err := warm.AppendInstance(ctx, srcID, client.AppendRequest{Facts: batch})
				if err != nil {
					t.Fatalf("trial %d round %d: append: %v", trial, round, err)
				}
				srcText += " " + batch
				srcID = app.ID
				resumes += app.Resumed
				fallbacks += app.Fallbacks
			} else {
				batch = randFactText(rng, tc.tgtRels, 1+rng.Intn(2))
				app, err := warm.AppendInstance(ctx, tgtID, client.AppendRequest{Facts: batch})
				if err != nil {
					t.Fatalf("trial %d round %d: append: %v", trial, round, err)
				}
				tgtText += " " + batch
				tgtID = app.ID
				resumes += app.Resumed
				fallbacks += app.Fallbacks
			}

			got, err := warm.ExistsSolution(ctx, client.SolveRequest{SettingID: id, SourceID: srcID, TargetID: tgtID})
			if err != nil {
				t.Fatalf("trial %d round %d: warm solve: %v", trial, round, err)
			}
			want, err := cold.ExistsSolution(ctx, client.SolveRequest{SettingID: id, Source: srcText, Target: tgtText})
			if err != nil {
				t.Fatalf("trial %d round %d: cold solve: %v", trial, round, err)
			}
			if got.Exists != want.Exists {
				t.Errorf("trial %d round %d (%s): cached exists=%v, scratch=%v\nsource: %s\ntarget: %s",
					trial, round, ids[k][:18], got.Exists, want.Exists, srcText, tgtText)
			}
			gotCA, err := warm.CertainAnswers(ctx, client.CertainRequest{SettingID: id, SourceID: srcID, TargetID: tgtID, Query: tc.query})
			if err != nil {
				t.Fatalf("trial %d round %d: warm certain: %v", trial, round, err)
			}
			wantCA, err := cold.CertainAnswers(ctx, client.CertainRequest{SettingID: id, Source: srcText, Target: tgtText, Query: tc.query})
			if err != nil {
				t.Fatalf("trial %d round %d: cold certain: %v", trial, round, err)
			}
			if gotCA.SolutionExists != wantCA.SolutionExists || fmtAnswers(gotCA.Answers) != fmtAnswers(wantCA.Answers) {
				t.Errorf("trial %d round %d: cached certain=%+v, scratch=%+v\nsource: %s\ntarget: %s",
					trial, round, gotCA, wantCA, srcText, tgtText)
			}
		}
	}
	// The trial mix must exercise both migration paths: incremental
	// resumes (pure-tgd settings) and egd-triggered full re-chases.
	if resumes == 0 || fallbacks == 0 {
		t.Errorf("migration paths not both exercised: %d resumes, %d fallbacks", resumes, fallbacks)
	}
}

// TestWarmColdLatency is the acceptance bar: a warm repeat of
// /v1/exists-solution against a registered instance must be at least
// 5× faster (p50) than the cold solve that populated the cache.
func TestWarmColdLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement")
	}
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(42))
	i, j := workload.LAVInstance(1600, true, rng)
	reg, err := c.Register(ctx, pde.FormatSetting(s))
	if err != nil {
		t.Fatal(err)
	}
	si, err := c.RegisterInstance(ctx, pde.FormatInstance(i))
	if err != nil {
		t.Fatal(err)
	}
	tj, err := c.RegisterInstance(ctx, pde.FormatInstance(j))
	if err != nil {
		t.Fatal(err)
	}

	req := client.SolveRequest{SettingID: reg.ID, SourceID: si.ID, TargetID: tj.ID, DeadlineMillis: 120_000}
	start := time.Now()
	coldRes, err := c.ExistsSolution(ctx, req)
	coldDur := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}

	var warmDurs []time.Duration
	for n := 0; n < 7; n++ {
		start = time.Now()
		res, err := c.ExistsSolution(ctx, req)
		warmDurs = append(warmDurs, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit || res.Exists != coldRes.Exists {
			t.Fatalf("warm solve %d: %+v (cold exists=%v)", n, res, coldRes.Exists)
		}
	}
	sort.Slice(warmDurs, func(a, b int) bool { return warmDurs[a] < warmDurs[b] })
	warmP50 := warmDurs[len(warmDurs)/2]
	t.Logf("cold=%v warm p50=%v (%.1fx)", coldDur, warmP50, float64(coldDur)/float64(warmP50))
	if coldDur < 5*warmP50 {
		t.Errorf("warm p50 %v is not ≥5x faster than cold %v", warmP50, coldDur)
	}
}

// TestCacheKeyedResumeAndFallbackReasons: a key-shaped target egd no
// longer forces append migrations to re-chase — the cache entry resumes
// incrementally — while a non-key egd still falls back, and the
// fallback counter carries the "egd" reason label.
func TestCacheKeyedResumeAndFallbackReasons(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	const keyed = `
setting keyed
source E/2
target H/2
st: E(x,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
t: H(x,y), H(x,z) -> y = z
`
	reg, err := c.Register(ctx, keyed)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.RegisterInstance(ctx, "E(a,b).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: inst.ID}); err != nil {
		t.Fatal(err)
	}
	app, err := c.AppendInstance(ctx, inst.ID, client.AppendRequest{Facts: "E(c,d)."})
	if err != nil {
		t.Fatal(err)
	}
	if app.Migrated != 1 || app.Resumed != 1 || app.Fallbacks != 0 {
		t.Fatalf("keyed append migration: %+v, want 1 entry resumed incrementally", app)
	}
	if metricsValue(t, c, "pdxd_chase_cache_resumes_total") != 1 {
		t.Error("resume counter did not move for the keyed setting")
	}
	if metricsValue(t, c, `pdxd_chase_cache_fallbacks_total{reason="egd"}`) != 0 {
		t.Error("keyed append was counted as an egd fallback")
	}

	// A cross-relation egd is not key-shaped: the append must fall back
	// and be attributed to the "egd" reason.
	const crossed = `
setting crossed
source A/2
target T/2, U/2
st: A(x,y) -> T(x,y)
ts: T(x,y) -> A(x,y)
t: T(x,y), U(x,z) -> y = z
`
	reg2, err := c.Register(ctx, crossed)
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := c.RegisterInstance(ctx, "A(a,b).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg2.ID, SourceID: inst2.ID}); err != nil {
		t.Fatal(err)
	}
	app2, err := c.AppendInstance(ctx, inst2.ID, client.AppendRequest{Facts: "A(c,d)."})
	if err != nil {
		t.Fatal(err)
	}
	if app2.Migrated != 1 || app2.Resumed != 0 || app2.Fallbacks != 1 {
		t.Fatalf("crossed append migration: %+v, want 1 entry falling back", app2)
	}
	if metricsValue(t, c, `pdxd_chase_cache_fallbacks_total{reason="egd"}`) != 1 {
		t.Error("egd-reason fallback counter did not move")
	}
	for _, reason := range []string{"failed", "other"} {
		if v := metricsValue(t, c, fmt.Sprintf("pdxd_chase_cache_fallbacks_total{reason=%q}", reason)); v != 0 {
			t.Errorf("fallback reason %q moved to %d, want 0", reason, v)
		}
	}
}

// TestTractableBytesCountsSharedRelationsOnce: a trace's six instances
// share relations copy-on-write, and accounting a LAV(800) trace
// charges each distinct relation once.
func TestTractableBytesCountsSharedRelationsOnce(t *testing.T) {
	i, j := workload.LAVInstance(800, true, rand.New(rand.NewSource(1)))
	tr, err := core.ChaseCanonicalTractable(workload.LAVSetting(), i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[*rel.Relation]bool)
	var want, perInstance int64
	for _, inst := range []*rel.Instance{tr.JCan, tr.ICan, tr.STResult.Start, tr.STResult.Instance, tr.TSResult.Start, tr.TSResult.Instance} {
		for _, name := range inst.RelationNames() {
			r := inst.Relation(name)
			perInstance += relationBytes(r)
			if !distinct[r] {
				distinct[r] = true
				want += relationBytes(r)
			}
		}
	}
	want += int64(tr.Blocks)*64 + 256
	if got := artifactBytes(tr); got != want {
		t.Fatalf("artifactBytes = %d, want %d over %d distinct relations", got, want, len(distinct))
	}
	if want >= perInstance {
		t.Fatalf("no relation shared: %d bytes over distinct relations, %d per instance", want, perInstance)
	}
}

// TestRestoredEntryChargedAsFresh: a snapshot-restored artifact shares
// relations the way a freshly chased one does, so the cache charges it
// no more bytes. Were the decoder to build each stored copy of a
// relation on its own, a restored LAV(400) trace would be charged about
// 2.5× its fresh size and -cache-max-bytes would evict restored entries
// that much early.
func TestRestoredEntryChargedAsFresh(t *testing.T) {
	decode := func(e *snap.Entry) *snap.Entry {
		t.Helper()
		data, err := snap.Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	i, j := workload.LAVInstance(400, true, rand.New(rand.NewSource(1)))
	tr, err := core.ChaseCanonicalTractable(workload.LAVSetting(), i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := decode(&snap.Entry{Kind: snap.KindTractable, Tractable: tr}).Tractable
	if fresh, restored := artifactBytes(tr), artifactBytes(got); restored > fresh {
		t.Errorf("restored LAV(400) trace charged %d B, fresh %d B", restored, fresh)
	}

	ki, kj := workload.KeyedLAVInstance(40)
	ct, err := core.ChaseCanonicalTarget(workload.KeyedLAVSetting(), ki, kj, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gen := decode(&snap.Entry{Kind: snap.KindGeneric, Generic: ct}).Generic
	if fresh, restored := artifactBytes(ct), artifactBytes(gen); restored > fresh {
		t.Errorf("restored keyed canonical target charged %d B, fresh %d B", restored, fresh)
	}
}

// TestRelationBytesAllocatesNothing: accounting a relation that holds
// nulls allocates nothing (rendering a null would allocate "_N…") and
// charges one 16-byte Value slot per argument, not the constant text.
func TestRelationBytesAllocatesNothing(t *testing.T) {
	inst := rel.NewInstance()
	for k := 0; k < 100; k++ {
		inst.Add("Rec", rel.Const(fmt.Sprintf("a-long-constant-text-%d", k)), rel.Null(k))
	}
	r := inst.Relation("Rec")
	if avg := testing.AllocsPerRun(100, func() { relationBytes(r) }); avg != 0 {
		t.Fatalf("relationBytes allocates %.1f per run, want 0", avg)
	}
	if got, want := relationBytes(r), int64(100*(80+len("Rec")+2*16)); got != want {
		t.Fatalf("relationBytes = %d, want %d", got, want)
	}
}
