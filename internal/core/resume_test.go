package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/workload"
)

// randomLAVAppend builds a small random batch of new facts over
// LAVSetting's source schema, using constants disjoint from the base
// instance for some facts and overlapping ones for others.
func randomLAVAppend(rng *rand.Rand, round int) *rel.Instance {
	a := rel.NewInstance()
	for k := 0; k < 1+rng.Intn(3); k++ {
		person := rel.Const(fmt.Sprintf("q%d_%d", round, k))
		group := rel.Const(fmt.Sprintf("g%d", rng.Intn(3)))
		a.Add("Person", person, group)
		if rng.Intn(3) > 0 {
			a.Add("Member", person, group)
		}
	}
	return a
}

// TestResumeCanonicalTractableProperty: resuming a tractable trace
// after an append yields the same Figure 3 verdict as re-chasing from
// scratch, across repeated append batches (the resumed trace of round
// k feeds round k+1).
func TestResumeCanonicalTractableProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	opts := core.TractableOptions{}
	for trial := 0; trial < 25; trial++ {
		s := workload.LAVSetting()
		i, j := workload.LAVInstance(6+rng.Intn(10), rng.Intn(2) == 0, rng)
		trace, err := core.ChaseCanonicalTractable(s, i, j, opts)
		if err != nil {
			t.Fatalf("trial %d: base chase: %v", trial, err)
		}
		for round := 0; round < 3; round++ {
			appended := randomLAVAppend(rng, round)
			appended.Freeze()
			next, resumed, _, err := core.ResumeCanonicalTractable(s, trace, appended, opts)
			if err != nil {
				t.Fatalf("trial %d round %d: resume: %v", trial, round, err)
			}
			if !resumed {
				t.Fatalf("trial %d round %d: pure-tgd tractable resume fell back", trial, round)
			}
			i = rel.Union(i, appended)
			gotOK, _, err := core.ExistsSolutionTractableFrom(i, next, opts)
			if err != nil {
				t.Fatalf("trial %d round %d: verdict from resumed trace: %v", trial, round, err)
			}
			wantOK, wantTrace, err := core.ExistsSolutionTractable(s, i, j, opts)
			if err != nil {
				t.Fatalf("trial %d round %d: scratch verdict: %v", trial, round, err)
			}
			if gotOK != wantOK {
				t.Fatalf("trial %d round %d: resumed verdict %v, scratch %v", trial, round, gotOK, wantOK)
			}
			// The canonical instances are chase results of the same input,
			// so their sizes must agree even though null labels differ.
			if got, want := next.ICan.NumFacts(), wantTrace.ICan.NumFacts(); got != want {
				t.Fatalf("trial %d round %d: resumed ICan has %d facts, scratch %d", trial, round, got, want)
			}
			if next.Blocks != wantTrace.Blocks {
				t.Fatalf("trial %d round %d: resumed trace has %d blocks, scratch %d", trial, round, next.Blocks, wantTrace.Blocks)
			}
			trace = next
		}
	}
}

// TestResumeCanonicalTargetProperty: over random settings (including
// target egds, full target tgds, and disjunctive Σts) and random
// append batches, solving from a resumed canonical target agrees with
// the from-scratch generic solver, and witnesses are real solutions.
func TestResumeCanonicalTargetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	opts := core.SolveOptions{}
	resumedSome, fellBack := false, false
	for trial := 0; trial < 60; trial++ {
		s := oracle.RandomSetting(rng)
		i, j := oracle.RandomInstance(rng)
		ct, err := core.ChaseCanonicalTarget(s, i, j, opts)
		if err != nil {
			t.Fatalf("trial %d: base chase: %v", trial, err)
		}
		for round := 0; round < 2; round++ {
			appended := rel.NewInstance()
			dom := []rel.Value{rel.Const("a"), rel.Const("b"), rel.Const(fmt.Sprintf("c%d", round))}
			for k := 0; k < 1+rng.Intn(2); k++ {
				switch rng.Intn(3) {
				case 0:
					appended.Add("A", dom[rng.Intn(len(dom))])
				case 1:
					appended.Add("B", dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
				default:
					appended.Add("T", dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
				}
			}
			// Split the batch onto the right sides for the from-scratch call.
			i = rel.Union(i, appended.Restrict(s.Source))
			j = rel.Union(j, appended.Restrict(s.Target))
			appended.Freeze()
			next, resumed, _, err := core.ResumeCanonicalTarget(s, ct, appended, opts)
			if err != nil {
				t.Fatalf("trial %d round %d: resume: %v", trial, round, err)
			}
			if resumed {
				resumedSome = true
			} else {
				fellBack = true
			}
			gotOK, gotWit, _, err := core.ExistsSolutionGenericFrom(s, i, j, next, opts)
			if err != nil {
				t.Fatalf("trial %d round %d: solve from resumed target: %v", trial, round, err)
			}
			wantOK, _, _, err := core.ExistsSolutionGeneric(s, i, j, opts)
			if err != nil {
				t.Fatalf("trial %d round %d: scratch solve: %v", trial, round, err)
			}
			if gotOK != wantOK {
				t.Fatalf("trial %d round %d: resumed verdict %v, scratch %v\nsetting: %+v", trial, round, gotOK, wantOK, s)
			}
			if gotOK && !s.IsSolution(i, j, gotWit) {
				t.Fatalf("trial %d round %d: resumed witness is not a solution", trial, round)
			}
			ct = next
		}
	}
	if !resumedSome {
		t.Fatal("no trial exercised the incremental path")
	}
	if !fellBack {
		t.Fatal("no trial exercised the egd fallback path")
	}
}

// instWith builds a one-fact instance.
func instWith(r string, vs ...rel.Value) *rel.Instance {
	in := rel.NewInstance()
	in.Add(r, vs...)
	return in
}

// TestResumeCanonicalTargetKeyedResume pins the relaxed eligibility: a
// setting whose Σt egd is key-shaped resumes the Σt phase
// incrementally even though the egd fired during the base chase, and
// the resumed artifact still solves correctly.
func TestResumeCanonicalTargetKeyedResume(t *testing.T) {
	s := &core.Setting{
		Name:   "keyed-resume",
		Source: rel.SchemaOf("A", 1, "B", 2),
		Target: rel.SchemaOf("T", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("u"))},
		}},
		T: []dep.Dependency{dep.EGD{
			Label: "t-key",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y")), dep.NewAtom("T", dep.Var("x"), dep.Var("z"))},
			Left:  "y", Right: "z",
		}},
	}
	i := instWith("A", rel.Const("a"))
	// The labeled null makes the base Σt chase merge _N1 into b, so the
	// previous result really carries merge state into the resume.
	j := instWith("T", rel.Const("a"), rel.Null(1))
	j.Add("T", rel.Const("a"), rel.Const("b"))
	opts := core.SolveOptions{}
	ct, err := core.ChaseCanonicalTarget(s, i, j, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ct.TResult == nil || !ct.TResult.EgdFired {
		t.Fatal("base chase did not exercise the Σt key egd")
	}
	if ct.TResult.UnionFind == nil {
		t.Fatal("merged Σt run retained no union-find")
	}
	appended := instWith("A", rel.Const("c"))
	appended.Freeze()
	next, resumed, reason, err := core.ResumeCanonicalTarget(s, ct, appended, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed || reason != chase.FallbackNone {
		t.Fatalf("key-shaped Σt egd fell back: resumed=%v reason=%q", resumed, reason)
	}
	i2 := rel.Union(i, appended)
	gotOK, _, _, err := core.ExistsSolutionGenericFrom(s, i2, j, next, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantOK, _, _, err := core.ExistsSolutionGeneric(s, i2, j, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotOK != wantOK {
		t.Fatalf("resumed verdict %v, scratch %v", gotOK, wantOK)
	}
}

// TestResumeCanonicalTargetEgdFallback pins the remaining fallback
// rule: a Σt egd that is not key-shaped (its body joins two relations)
// must not resume incrementally, the reason is "egd", and the resumed
// artifact still solves correctly.
func TestResumeCanonicalTargetEgdFallback(t *testing.T) {
	s := &core.Setting{
		Name:   "egd-fallback",
		Source: rel.SchemaOf("A", 1, "B", 2),
		Target: rel.SchemaOf("T", 2, "U", 2),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("A", dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("u"))},
		}},
		T: []dep.Dependency{dep.EGD{
			Label: "t-cross",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y")), dep.NewAtom("U", dep.Var("x"), dep.Var("z"))},
			Left:  "y", Right: "z",
		}},
	}
	i := instWith("A", rel.Const("a"))
	j := instWith("T", rel.Const("a"), rel.Const("b"))
	j.Add("U", rel.Const("a"), rel.Const("b"))
	opts := core.SolveOptions{}
	ct, err := core.ChaseCanonicalTarget(s, i, j, opts)
	if err != nil {
		t.Fatal(err)
	}
	appended := instWith("A", rel.Const("c"))
	appended.Freeze()
	next, resumed, reason, err := core.ResumeCanonicalTarget(s, ct, appended, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("non-key Σt egd reported a fully incremental resume")
	}
	if reason != chase.FallbackEgd {
		t.Fatalf("fallback reason = %q, want %q", reason, chase.FallbackEgd)
	}
	i2 := rel.Union(i, appended)
	gotOK, _, _, err := core.ExistsSolutionGenericFrom(s, i2, j, next, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantOK, _, _, err := core.ExistsSolutionGeneric(s, i2, j, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotOK != wantOK {
		t.Fatalf("resumed verdict %v, scratch %v", gotOK, wantOK)
	}
}

// TestConcurrentResumeOfCachedArtifacts resumes one cached artifact
// from 8 goroutines at once, each with its own appended batch, as pdxd
// does when appends to one instance race. Resume clones the retained
// chase results, so they must be frozen before the artifact is shared;
// run under -race. Every concurrent result must equal the serial one.
func TestConcurrentResumeOfCachedArtifacts(t *testing.T) {
	const goroutines = 8
	batches := make([]*rel.Instance, goroutines)

	s := workload.LAVSetting()
	i, j := workload.LAVInstance(40, true, rand.New(rand.NewSource(5)))
	trace, err := core.ChaseCanonicalTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for g := range batches {
		batches[g] = randomLAVAppend(rand.New(rand.NewSource(int64(g))), g)
		batches[g].Freeze()
	}
	concurrentlyResume(t, "tractable", batches, func(b *rel.Instance) (string, error) {
		next, _, _, err := core.ResumeCanonicalTractable(s, trace, b, core.TractableOptions{})
		if err != nil {
			return "", err
		}
		return next.JCan.String() + "\n--\n" + next.ICan.String(), nil
	})

	ks := workload.KeyedLAVSetting()
	ki, kj := workload.KeyedLAVInstance(40)
	ct, err := core.ChaseCanonicalTarget(ks, ki, kj, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for g := range batches {
		batches[g] = workload.KeyedLAVAppend(40+3*g, 3)
		batches[g].Freeze()
	}
	concurrentlyResume(t, "generic", batches, func(b *rel.Instance) (string, error) {
		next, _, _, err := core.ResumeCanonicalTarget(ks, ct, b, core.SolveOptions{})
		if err != nil {
			return "", err
		}
		return next.JCan.String(), nil
	})
}

// concurrentlyResume runs resume once per batch serially, then once per
// batch from one goroutine each, and fails on any difference.
func concurrentlyResume(t *testing.T, what string, batches []*rel.Instance, resume func(*rel.Instance) (string, error)) {
	t.Helper()
	want := make([]string, len(batches))
	for g, b := range batches {
		var err error
		if want[g], err = resume(b); err != nil {
			t.Fatalf("%s: serial resume %d: %v", what, g, err)
		}
	}
	got := make([]string, len(batches))
	errs := make([]error, len(batches))
	var wg sync.WaitGroup
	for g, b := range batches {
		wg.Add(1)
		go func(g int, b *rel.Instance) {
			defer wg.Done()
			got[g], errs[g] = resume(b)
		}(g, b)
	}
	wg.Wait()
	for g := range batches {
		if errs[g] != nil {
			t.Fatalf("%s: concurrent resume %d: %v", what, g, errs[g])
		}
		if got[g] != want[g] {
			t.Fatalf("%s: concurrent resume %d differs from the serial one", what, g)
		}
	}
}
