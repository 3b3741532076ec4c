package repro

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/depparse"
	"repro/internal/hom"
	"repro/internal/qplan"
	"repro/internal/rel"
	"repro/internal/workload"
)

// mallocsAt returns the heap allocations of runs calls of f at the
// given GOMAXPROCS, after a warm-up call, with the collector off so no
// cycle empties the searcher pool mid-measurement. It reads the
// runtime's counter directly because testing.AllocsPerRun pins
// GOMAXPROCS to 1.
func mallocsAt(procs, runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for k := 0; k < runs; k++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestAllocsIndependentOfGOMAXPROCS: a request runs serially, so the
// Figure 3 algorithm, the generic solver and a compiled plan allocate
// as much per call at GOMAXPROCS 4 as at 1. The averages may differ by
// 0.5%: sync.Pool caches per P, so a goroutine the scheduler moves to
// another P can miss a pooled searcher (about one allocation per call
// at most). Fanning a call out over workers costs 2–33% more.
func TestAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	lav := workload.LAVSetting()
	li, lj := workload.LAVInstance(200, true, rand.New(rand.NewSource(5)))
	li.Freeze()
	lj.Freeze()

	gen := workload.GenomicSetting()
	gi, gj := workload.GenomicInstance(8, true, rand.New(rand.NewSource(6)))
	gi.Freeze()
	gj.Freeze()

	sp, err := qplan.CompileSetting(lav)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := depparse.ParseQueries("q(x,g) :- Rec(x,g,u)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sp.CompileQuery(qs[0])
	if err != nil {
		t.Fatal(err)
	}

	const runs = 20
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"tractable LAV", func() error {
			_, _, err := core.ExistsSolutionTractable(lav, li, lj, core.TractableOptions{})
			return err
		}},
		{"generic genomic", func() error {
			_, _, _, err := core.ExistsSolutionGeneric(gen, gi, gj, core.SolveOptions{})
			return err
		}},
		{"compiled plan", func() error {
			_, err := plan.Eval(li, lj, qplan.EvalOptions{})
			return err
		}},
	} {
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		f := func() { _ = c.run() }
		one, four := mallocsAt(1, runs, f), mallocsAt(4, runs, f)
		if diff := int64(four) - int64(one); 200*max(diff, -diff) > int64(one) {
			t.Errorf("%s: %.1f allocs per call at GOMAXPROCS=1, %.1f at GOMAXPROCS=4",
				c.name, float64(one)/runs, float64(four)/runs)
		}
	}
}

// TestSearchAllocsZero pins the join engine's inner loop: on a compiled
// two-atom conjunction with a live slot vector, after warm-up, Exists
// and ForEach with a no-op callback allocate nothing per call — the
// searcher is pooled, binds by slot, and the ground fast path (every
// slot pre-bound) checks containment in pooled scratch.
func TestSearchAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	inst := rel.NewInstance()
	for k := 0; k < 40; k++ {
		inst.Add("R", rel.Const(string(rune('a'+k%7))), rel.Const(string(rune('a'+k%5))))
		inst.Add("S", rel.Const(string(rune('a'+k%5))), rel.Null(k))
	}
	inst.Freeze()
	body := []dep.Atom{
		dep.NewAtom("R", dep.Var("x"), dep.Var("y")),
		dep.NewAtom("S", dep.Var("y"), dep.Var("z")),
	}
	var open hom.Vars
	join := open.Compile(body)
	var pre hom.Vars
	for _, v := range []string{"x", "y", "z"} {
		pre.Slot(v)
	}
	ground := pre.Compile(body)
	vals := make([]rel.Value, 3)
	gvals := []rel.Value{rel.Const("a"), rel.Const("a"), rel.Null(0)}
	noop := func([]rel.Value) bool { return true }
	const runs = 100
	for _, c := range []struct {
		name string
		want bool
		run  func() bool
	}{
		{"Exists", true, func() bool { return join.Exists(inst, vals, hom.Options{}) }},
		{"ForEach", true, func() bool { return join.ForEach(inst, vals, hom.Options{}, noop) }},
		{"ground Exists", true, func() bool { return ground.Exists(inst, gvals, hom.Options{}) }},
	} {
		if got := c.run(); got != c.want {
			t.Fatalf("%s = %v, want %v", c.name, got, c.want)
		}
		if n := mallocsAt(1, runs, func() { c.run() }); n != 0 {
			t.Errorf("%s: %d allocations over %d calls, want 0", c.name, n, runs)
		}
	}
}
