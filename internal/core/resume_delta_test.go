package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/snap"
	"repro/internal/workload"
)

// The tests below pin the downstream phase's resume from the true
// delta against the whole-J_can call it replaced, kept here as the
// oracle: both must encode to the same snapshot bytes.

// resumeTractableWholeJCan is ResumeCanonicalTractable handing Σts the
// whole new J_can as its appended facts.
func resumeTractableWholeJCan(s *core.Setting, trace *core.TractableTrace, appended *rel.Instance) (*core.TractableTrace, error) {
	ns := &rel.NullSource{}
	ns.SetState(trace.NullState)
	copts := chase.Options{Nulls: ns}
	res1, _, err := chase.Resume(trace.STResult, s.StDeps(), appended, copts)
	if err != nil {
		return nil, err
	}
	jcan := res1.Instance.Restrict(s.Target)
	res2, _, err := chase.Resume(trace.TSResult, s.TsDeps(), jcan, copts)
	if err != nil {
		return nil, err
	}
	ican := res2.Instance.Restrict(s.Source)
	jcan.Freeze()
	ican.Freeze()
	res1.Freeze()
	res2.Freeze()
	next := &core.TractableTrace{
		JCan: jcan, ICan: ican,
		StepsST: res1.Steps, StepsTS: res2.Steps,
		STResult: res1, TSResult: res2,
		NullState: ns.State(),
	}
	next.FillBlocks()
	return next, nil
}

// resumeTargetWholeJCan is ResumeCanonicalTarget handing Σt the whole
// new J_can as its appended facts.
func resumeTargetWholeJCan(s *core.Setting, ct *core.CanonicalTarget, appended *rel.Instance) (*core.CanonicalTarget, error) {
	ns := &rel.NullSource{}
	ns.SetState(ct.NullState)
	copts := chase.Options{Nulls: ns}
	res, _, err := chase.Resume(ct.STResult, s.StDeps(), appended, copts)
	if err != nil {
		return nil, err
	}
	next := &core.CanonicalTarget{STResult: res}
	jcan := res.Instance.Restrict(s.Target)
	res.Freeze()
	if len(s.T) > 0 {
		tres, _, err := chase.Resume(ct.TResult, s.T, jcan, copts)
		if err != nil {
			return nil, err
		}
		tres.Freeze()
		next.TResult = tres
		if tres.Failed {
			next.TFailed = true
			next.NullState = ns.State()
			return next, nil
		}
		jcan = tres.Instance
	}
	jcan.Freeze()
	next.JCan = jcan
	next.NullState = ns.State()
	return next, nil
}

func encodeTrace(t *testing.T, tr *core.TractableTrace) []byte {
	t.Helper()
	data, err := snap.Encode(&snap.Entry{Kind: snap.KindTractable, Tractable: tr})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func encodeTarget(t *testing.T, ct *core.CanonicalTarget) []byte {
	t.Helper()
	data, err := snap.Encode(&snap.Entry{Kind: snap.KindGeneric, Generic: ct})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestResumeTractableFromDeltaMatchesWholeJCan: over chains of LAV
// appends, solvable and not, a tractable trace resumed from the delta
// encodes byte for byte like one resumed from the whole J_can.
func TestResumeTractableFromDeltaMatchesWholeJCan(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s := workload.LAVSetting()
	for trial := 0; trial < 12; trial++ {
		i, j := workload.LAVInstance(6+rng.Intn(30), rng.Intn(2) == 0, rng)
		trace, err := core.ChaseCanonicalTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			appended := randomLAVAppend(rng, round)
			appended.Freeze()
			got, _, _, err := core.ResumeCanonicalTractable(s, trace, appended, core.TractableOptions{})
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			want, err := resumeTractableWholeJCan(s, trace, appended)
			if err != nil {
				t.Fatalf("trial %d round %d: oracle: %v", trial, round, err)
			}
			if !bytes.Equal(encodeTrace(t, got), encodeTrace(t, want)) {
				t.Fatalf("trial %d round %d: delta resume encodes differently from the whole-J_can resume", trial, round)
			}
			trace = got
		}
	}
}

// oldFactValues counts the values of the facts of jcan that start
// already holds: the union-find lookups the whole-J_can call spends
// re-canonicalizing old facts, which the delta call skips.
func oldFactValues(jcan, start *rel.Instance) int {
	n := 0
	for _, f := range jcan.Facts() {
		if start.Contains(f) {
			n += len(f.Args)
		}
	}
	return n
}

// checkTargetResume resumes ct both ways and requires equal snapshot
// bytes. The one counter allowed to differ is the resumed Σt run's
// Finds, which counts the union-find lookups actually made: when that
// run continues incrementally from a run with merges, the whole-J_can
// call makes exactly oldFactValues more of them.
func checkTargetResume(t *testing.T, what string, s *core.Setting, ct *core.CanonicalTarget, appended *rel.Instance) *core.CanonicalTarget {
	t.Helper()
	got, _, _, err := core.ResumeCanonicalTarget(s, ct, appended, core.SolveOptions{})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := resumeTargetWholeJCan(s, ct, appended)
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	if want.TResult != nil && ct.TResult.UnionFind != nil && chase.Resumable(ct.TResult, s.T) {
		extra := oldFactValues(want.STResult.Instance.Restrict(s.Target), ct.TResult.Start)
		if d := want.TResult.Finds - got.TResult.Finds; d != extra {
			t.Fatalf("%s: whole-J_can resume made %d more finds, want %d", what, d, extra)
		}
		fixed := *got.TResult
		fixed.Finds = want.TResult.Finds
		patched := *got
		patched.TResult = &fixed
		if !bytes.Equal(encodeTarget(t, &patched), encodeTarget(t, want)) {
			t.Fatalf("%s: delta resume encodes differently from the whole-J_can resume", what)
		}
		return got
	}
	if !bytes.Equal(encodeTarget(t, got), encodeTarget(t, want)) {
		t.Fatalf("%s: delta resume encodes differently from the whole-J_can resume", what)
	}
	return got
}

// TestResumeTargetFromDeltaMatchesWholeJCan covers the generic helper
// on random settings (target egds, full target tgds, failing and
// fallback runs), on keyed LAV append chains, and on the keyed-egd
// settings of TestResumeCanonicalTargetKeyedResume, whose base run
// merges a null into a constant.
func TestResumeTargetFromDeltaMatchesWholeJCan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		s := oracle.RandomSetting(rng)
		i, j := oracle.RandomInstance(rng)
		ct, err := core.ChaseCanonicalTarget(s, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
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
			appended.Freeze()
			ct = checkTargetResume(t, fmt.Sprintf("random trial %d round %d", trial, round), s, ct, appended)
		}
	}

	ks := workload.KeyedLAVSetting()
	ki, kj := workload.KeyedLAVInstance(40)
	ct, err := core.ChaseCanonicalTarget(ks, ki, kj, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		appended := randomLAVAppend(rng, round)
		appended.Freeze()
		ct = checkTargetResume(t, fmt.Sprintf("keyed LAV round %d", round), ks, ct, appended)
	}

	keyed := &core.Setting{
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
	j := instWith("T", rel.Const("a"), rel.Null(1))
	j.Add("T", rel.Const("a"), rel.Const("b"))
	ct, err = core.ChaseCanonicalTarget(keyed, i, j, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ct.TResult == nil || ct.TResult.UnionFind == nil {
		t.Fatal("base chase retained no Σt merge state")
	}
	for round, batch := range []*rel.Instance{
		instWith("A", rel.Const("c")),
		instWith("A", rel.Const("a")),
		instWith("T", rel.Const("c"), rel.Const("d")),
	} {
		batch.Freeze()
		ct = checkTargetResume(t, fmt.Sprintf("keyed-resume round %d", round), keyed, ct, batch)
	}
}
