// Resume property tests live in the external test package for the same
// reason as the other property suites: they draw workloads from
// internal/workload, which imports core → chase.
package chase_test

import (
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/workload"
)

// tgdsOnly strips a random dependency set down to its tgds, the shape
// Resume can continue incrementally.
func tgdsOnly(deps []dep.Dependency) []dep.Dependency {
	out := make([]dep.Dependency, 0, len(deps))
	for _, d := range deps {
		if _, ok := d.(dep.TGD); ok {
			out = append(out, d)
		}
	}
	return out
}

// TestChaseResumeProperty: on random pure-tgd workloads, resuming a
// finished chase with an appended batch takes the incremental path and
// lands on a fixpoint of the enlarged start: it satisfies every
// dependency, contains Union(base, appended), and is hom-equivalent to
// a from-scratch chase of the union. Null labels may differ between the
// two runs (the scratch run interleaves firings differently), so the
// comparison is mutual homomorphism, the right notion of equality for
// chase results.
func TestChaseResumeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	resumedSome := false
	for trial := 0; trial < 60; trial++ {
		deps := tgdsOnly(workload.RandomWeaklyAcyclicDeps(rng))
		if len(deps) == 0 {
			continue
		}
		base := workload.RandomLayerInstance(rng)
		appended := workload.RandomLayerInstance(rng)
		base.Freeze()
		appended.Freeze()
		opts := chase.Options{}
		prev, err := chase.Run(base, deps, opts)
		if err != nil {
			t.Fatalf("trial %d: base chase errored: %v", trial, err)
		}
		if prev.EgdFired || prev.Failed {
			t.Fatalf("trial %d: pure-tgd chase reported EgdFired=%v Failed=%v", trial, prev.EgdFired, prev.Failed)
		}
		res, resumed, err := chase.Resume(prev, deps, appended, opts)
		if err != nil {
			t.Fatalf("trial %d: resume errored: %v", trial, err)
		}
		if !resumed {
			t.Fatalf("trial %d: pure-tgd resume fell back to a full re-chase", trial)
		}
		resumedSome = true
		union := rel.Union(base, appended)
		if !res.Instance.ContainsAll(union) {
			t.Fatalf("trial %d: resumed fixpoint lost facts of the enlarged start", trial)
		}
		if !chase.Check(res.Instance, deps, hom.Options{}) {
			t.Fatalf("trial %d: resumed fixpoint violates dependencies\ndeps: %v\nresult:\n%s", trial, deps, res.Instance)
		}
		scratch, err := chase.Run(union, deps, opts)
		if err != nil {
			t.Fatalf("trial %d: scratch chase errored: %v", trial, err)
		}
		if !hom.InstanceHomExists(res.Instance, scratch.Instance, hom.Options{}) ||
			!hom.InstanceHomExists(scratch.Instance, res.Instance, hom.Options{}) {
			t.Fatalf("trial %d: resumed and scratch fixpoints not hom-equivalent\nresumed:\n%s\nscratch:\n%s",
				trial, res.Instance, scratch.Instance)
		}
		if res.Steps > scratch.Steps {
			t.Fatalf("trial %d: resume fired %d steps, scratch only %d", trial, res.Steps, scratch.Steps)
		}
	}
	if !resumedSome {
		t.Fatal("no trial exercised the incremental path")
	}
}

// TestChaseResumeEmptyAppend: appending nothing to a fixpoint is a
// no-op — zero steps, identical facts.
func TestChaseResumeEmptyAppend(t *testing.T) {
	deps := workload.ChainDeps(4)
	inst := workload.ChainInstance(30)
	inst.Freeze()
	prev, err := chase.Run(inst, deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, resumed, err := chase.Resume(prev, deps, rel.NewInstance(), chase.Options{})
	if err != nil || !resumed {
		t.Fatalf("empty-append resume: resumed=%v err=%v", resumed, err)
	}
	if res.Steps != 0 {
		t.Fatalf("empty-append resume fired %d steps, want 0", res.Steps)
	}
	if !res.Instance.Equal(prev.Instance) {
		t.Fatal("empty-append resume changed the fixpoint")
	}
}

// unkeyed pads every key egd of deps with a redundant third body atom
// R(x, w): the egd keeps its meaning (w may bind to y) but is no longer
// key-shaped, so the set is resume-ineligible.
func unkeyed(deps []dep.Dependency) []dep.Dependency {
	out := make([]dep.Dependency, len(deps))
	for i, d := range deps {
		if e, ok := d.(dep.EGD); ok {
			a := e.Body[0]
			e.Body = append(append([]dep.Atom{}, e.Body...), dep.NewAtom(a.Rel, a.Args[0], dep.Var("w")))
			d = e
		}
		out[i] = d
	}
	return out
}

// TestChaseResumeFallback: conditions that make the incremental path
// unsound force the fallback — here, an egd that is not key-shaped —
// and the fallback result is byte-identical to an independent
// from-scratch chase of the union under the same options.
func TestChaseResumeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	fellBack := 0
	for trial := 0; trial < 80; trial++ {
		deps := unkeyed(workload.RandomWeaklyAcyclicDeps(rng))
		hasEGD := false
		for _, d := range deps {
			if e, ok := d.(dep.EGD); ok && !e.KeyShaped() {
				hasEGD = true
			}
		}
		if !hasEGD {
			continue
		}
		base := workload.RandomLayerInstance(rng)
		appended := workload.RandomLayerInstance(rng)
		base.Freeze()
		appended.Freeze()
		opts := chase.Options{}
		prev, err := chase.Run(base, deps, opts)
		if err != nil || prev.Failed {
			continue
		}
		if chase.Resumable(prev, deps) {
			t.Fatalf("trial %d: set with a non-key egd reported resumable", trial)
		}
		if reason := chase.FallbackReason(prev, deps); reason != chase.FallbackEgd {
			t.Fatalf("trial %d: fallback reason = %q, want %q", trial, reason, chase.FallbackEgd)
		}
		res, resumed, err := chase.Resume(prev, deps, appended, opts)
		if err != nil {
			continue // budget exhaustion on the union is possible and fine
		}
		if resumed {
			t.Fatalf("trial %d: non-key egd resume took the incremental path", trial)
		}
		fellBack++
		scratch, err := chase.Run(rel.Union(base, appended), deps, opts)
		if err != nil {
			t.Fatalf("trial %d: scratch chase errored after fallback succeeded: %v", trial, err)
		}
		if res.Steps != scratch.Steps || res.Failed != scratch.Failed {
			t.Fatalf("trial %d: fallback (steps=%d failed=%v) differs from scratch (steps=%d failed=%v)",
				trial, res.Steps, res.Failed, scratch.Steps, scratch.Failed)
		}
		if res.Instance.String() != scratch.Instance.String() {
			t.Fatalf("trial %d: fallback instance differs from scratch", trial)
		}
	}
	if fellBack == 0 {
		t.Fatal("no trial exercised the fallback path")
	}
}

// TestChaseResumeKeyedProperty: egd-bearing random workloads — whose
// egds are all key-shaped — now take the incremental path, and the
// resumed fixpoint is a correct chase result of the enlarged start:
// dependency-satisfying, containing the (canonicalized) union, and
// hom-equivalent to a from-scratch chase of the union. Null labels and
// merge interleavings may differ between the two runs, so the
// comparison is mutual homomorphism.
func TestChaseResumeKeyedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	resumedSome := false
	for trial := 0; trial < 60; trial++ {
		deps := workload.RandomWeaklyAcyclicDeps(rng)
		hasEGD := false
		for _, d := range deps {
			if e, ok := d.(dep.EGD); ok {
				hasEGD = true
				if !e.KeyShaped() {
					t.Fatalf("trial %d: workload egd %s is not key-shaped", trial, e.Label)
				}
			}
		}
		if !hasEGD {
			continue
		}
		base := workload.RandomLayerInstance(rng)
		appended := workload.RandomLayerInstance(rng)
		base.Freeze()
		appended.Freeze()
		opts := chase.Options{}
		prev, err := chase.Run(base, deps, opts)
		if err != nil || prev.Failed {
			continue
		}
		if reason := chase.FallbackReason(prev, deps); reason != chase.FallbackNone {
			t.Fatalf("trial %d: keyed set not resumable, reason %q", trial, reason)
		}
		res, resumed, err := chase.Resume(prev, deps, appended, opts)
		if err != nil {
			continue // budget exhaustion on the union is possible and fine
		}
		if !resumed {
			t.Fatalf("trial %d: keyed resume fell back to a full re-chase", trial)
		}
		resumedSome = true
		scratch, err := chase.Run(rel.Union(base, appended), deps, opts)
		if err != nil {
			t.Fatalf("trial %d: scratch chase errored after resume succeeded: %v", trial, err)
		}
		if res.Failed != scratch.Failed {
			t.Fatalf("trial %d: resumed failed=%v, scratch failed=%v", trial, res.Failed, scratch.Failed)
		}
		if res.Failed {
			continue
		}
		if !chase.Check(res.Instance, deps, hom.Options{}) {
			t.Fatalf("trial %d: resumed fixpoint violates dependencies\ndeps: %v\nresult:\n%s", trial, deps, res.Instance)
		}
		if !hom.InstanceHomExists(res.Instance, scratch.Instance, hom.Options{}) ||
			!hom.InstanceHomExists(scratch.Instance, res.Instance, hom.Options{}) {
			t.Fatalf("trial %d: resumed and scratch fixpoints not hom-equivalent\nresumed:\n%s\nscratch:\n%s",
				trial, res.Instance, scratch.Instance)
		}
	}
	if !resumedSome {
		t.Fatal("no trial exercised the keyed incremental path")
	}
}

// TestChaseResumeNonKeyEgdFallback: an egd that is not key-shaped (its
// body joins two different relations) keeps the dependency set
// resume-ineligible with reason "egd".
func TestChaseResumeNonKeyEgdFallback(t *testing.T) {
	deps := []dep.Dependency{dep.EGD{
		Label: "cross-rel",
		Body: []dep.Atom{
			dep.NewAtom("L0", dep.Var("x"), dep.Var("y")),
			dep.NewAtom("L1", dep.Var("x"), dep.Var("z")),
		},
		Left: "y", Right: "z",
	}}
	inst := rel.NewInstance()
	inst.Add("L0", rel.Const("a"), rel.Null(1))
	inst.Add("L1", rel.Const("a"), rel.Const("c"))
	inst.Freeze()
	prev, err := chase.Run(inst, deps, chase.Options{})
	if err != nil || prev.Failed {
		t.Fatalf("cross-rel chase: failed=%v err=%v", prev != nil && prev.Failed, err)
	}
	if reason := chase.FallbackReason(prev, deps); reason != chase.FallbackEgd {
		t.Fatalf("non-key egd fallback reason = %q, want %q", reason, chase.FallbackEgd)
	}
	more := rel.NewInstance()
	more.Add("L0", rel.Const("b"), rel.Const("d"))
	more.Freeze()
	if _, resumed, err := chase.Resume(prev, deps, more, chase.Options{}); err != nil || resumed {
		t.Fatalf("non-key egd resume: resumed=%v err=%v", resumed, err)
	}
}

// TestChaseResumePrevRebuildFallback: a previous result that merged
// values but carries no union-find (a hand-built or decoded result that
// lost it) cannot seed a resume, even for a key-only set; Resume
// re-chases from scratch instead.
func TestChaseResumePrevRebuildFallback(t *testing.T) {
	deps := []dep.Dependency{dep.EGD{
		Label: "r-key",
		Body: []dep.Atom{
			dep.NewAtom("R", dep.Var("x"), dep.Var("y")),
			dep.NewAtom("R", dep.Var("x"), dep.Var("z")),
		},
		Left: "y", Right: "z",
	}}
	inst := rel.NewInstance()
	inst.Add("R", rel.Const("a"), rel.Null(1))
	inst.Add("R", rel.Const("a"), rel.Const("c"))
	inst.Freeze()
	run, err := chase.Run(inst, deps, chase.Options{})
	if err != nil || run.Failed {
		t.Fatal(err)
	}
	prev := &chase.Result{Instance: run.Instance, Start: inst, Steps: run.Steps, EgdFired: true, UnionFind: nil}
	if reason := chase.FallbackReason(prev, deps); reason != chase.FallbackEgd {
		t.Fatalf("prev-without-union-find fallback reason = %q, want %q", reason, chase.FallbackEgd)
	}
	more := rel.NewInstance()
	more.Add("R", rel.Const("b"), rel.Const("d"))
	more.Freeze()
	res, resumed, err := chase.Resume(prev, deps, more, chase.Options{})
	if err != nil || resumed {
		t.Fatalf("prev-without-union-find resume: resumed=%v err=%v", resumed, err)
	}
	if want := "R(a, c)\nR(b, d)"; res.Instance.String() != want {
		t.Fatalf("fallback re-chase gave\n%s\nwant\n%s", res.Instance, want)
	}
}

// TestChaseResumeCanonicalizesAppended: an appended fact mentioning a
// null the previous run merged away lands on the class representative,
// and fresh nulls drawn by the resumed run never reuse a merged-away
// label.
func TestChaseResumeCanonicalizesAppended(t *testing.T) {
	deps := []dep.Dependency{
		dep.EGD{
			Label: "r-key",
			Body: []dep.Atom{
				dep.NewAtom("R", dep.Var("x"), dep.Var("y")),
				dep.NewAtom("R", dep.Var("x"), dep.Var("z")),
			},
			Left: "y", Right: "z",
		},
		dep.TGD{
			Label: "s-wit",
			Body:  []dep.Atom{dep.NewAtom("S", dep.Var("x"), dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("u"))},
		},
	}
	inst := rel.NewInstance()
	inst.Add("R", rel.Const("a"), rel.Null(5))
	inst.Add("R", rel.Const("a"), rel.Const("c"))
	inst.Freeze()
	prev, err := chase.Run(inst, deps, chase.Options{})
	if err != nil || prev.Failed {
		t.Fatal(err)
	}
	if !prev.EgdFired || prev.UnionFind == nil {
		t.Fatalf("keyed run: EgdFired=%v UnionFind=%v", prev.EgdFired, prev.UnionFind)
	}
	more := rel.NewInstance()
	more.Add("R", rel.Const("b"), rel.Null(5)) // mentions the merged-away null
	more.Add("S", rel.Const("b"), rel.Const("b"))
	more.Freeze()
	res, resumed, err := chase.Resume(prev, deps, more, chase.Options{})
	if err != nil || !resumed {
		t.Fatalf("keyed resume: resumed=%v err=%v", resumed, err)
	}
	r := res.Instance.Relation("R")
	wantFact := rel.Tuple{rel.Const("b"), rel.Const("c")}
	foundCanon := false
	for i := 0; i < r.Len(); i++ {
		tup := r.TupleAt(i)
		if tup[0] == rel.Const("b") {
			if tup[1] == rel.Null(5) {
				t.Fatal("appended fact kept the merged-away null _N5")
			}
			if tup[1] == wantFact[1] {
				foundCanon = true
			}
		}
	}
	if !foundCanon {
		t.Fatalf("appended fact was not canonicalized to R(b, c):\n%s", res.Instance)
	}
	tt := res.Instance.Relation("T")
	if tt == nil || tt.Len() != 1 {
		t.Fatalf("tgd did not fire exactly once on the appended S fact:\n%s", res.Instance)
	}
	fresh := tt.TupleAt(0)[1]
	if !fresh.IsNull() || fresh.NullID() <= 5 {
		t.Fatalf("fresh null %v does not clear the merged-away label _N5", fresh)
	}
}

// TestChaseResumeOblivious: on the chain family no trigger is ever
// already satisfied, so the restricted chase takes exactly the oblivious
// chase's steps there. Its result is resumable, and resuming it after an
// append reaches the oblivious reference chase's fixpoint of the union
// (up to null renaming) in the same total number of steps.
func TestChaseResumeOblivious(t *testing.T) {
	deps := workload.ChainDeps(3)
	inst := workload.ChainInstance(10)
	inst.Freeze()
	prev, err := chase.Run(inst, deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !chase.Resumable(prev, deps) {
		t.Fatalf("restricted chain result not resumable: %q", chase.FallbackReason(prev, deps))
	}
	more := rel.NewInstance()
	more.Add("T0", rel.Const("x"), rel.Const("y"))
	more.Freeze()
	res, resumed, err := chase.Resume(prev, deps, more, chase.Options{})
	if err != nil || !resumed {
		t.Fatalf("resume: resumed=%v err=%v", resumed, err)
	}
	union := rel.Union(inst, more)
	union.Freeze()
	obl, err := oracle.Chase(union, deps, nil, true, chase.DefaultMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if got := prev.Steps + res.Steps; got != obl.Steps {
		t.Errorf("restricted steps %d+%d = %d, oblivious reference %d", prev.Steps, res.Steps, got, obl.Steps)
	}
	if !hom.InstanceHomExists(res.Instance, obl.Instance, hom.Options{}) ||
		!hom.InstanceHomExists(obl.Instance, res.Instance, hom.Options{}) {
		t.Fatalf("resumed fixpoint not hom-equivalent to the oblivious reference chase\nresumed:\n%s\noblivious:\n%s", res.Instance, obl.Instance)
	}
}

// TestChaseEgdWatermarkParity: egd-heavy workloads where the detection
// watermark actually skips passes (several rounds of tgd growth in
// relations no egd reads) stay byte-identical to the reference chase. The
// random suite in delta_test.go covers the mixed case; this pins the
// shape the satellite optimization targets.
func TestChaseEgdWatermarkParity(t *testing.T) {
	// Deep chain cascade (one layer per round) whose egd watches only
	// the seed layer: after the egd's first clean pass, every later
	// round grows T1..T4 but never T0, so the delta path skips the egd
	// body scan in every round after the first.
	deps := workload.DeepChainDeps(4)
	deps = append(deps, dep.EGD{
		Label: "t0-key",
		Body: []dep.Atom{
			dep.NewAtom("T0", dep.Var("x"), dep.Var("y")),
			dep.NewAtom("T0", dep.Var("x"), dep.Var("z")),
		},
		Left: "y", Right: "z",
	})
	inst := workload.ChainInstance(25)
	inst.Freeze()
	want := referenceChase(inst, deps, nil)
	if want.err != "" {
		t.Fatalf("reference chase errored: %s", want.err)
	}
	semi, serr := chase.Run(inst, deps, chase.Options{})
	if serr != nil {
		t.Fatalf("egd-watermark chase errored: %v", serr)
	}
	if got := fingerprint(semi, nil); got != want {
		t.Fatalf("egd-watermark parity broken\nsemi:   %+v\noracle: %+v", got, want)
	}
}
