package rel

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// The relation-index model check: runRelationOps decodes bytes into a
// sequence of writes (fresh and duplicate adds, RemoveLastTuple,
// MergeValue, Reserve, and Clone followed by a write) and checks the
// instance against modelInstance, a map[TupleKey]int rendering of the
// same semantics, plus checkIndexCoherence, after every step.

// opsRels are the relations the op sequences write, with their
// arities; opsPool is the value pool their tuples draw from. A small
// pool makes duplicates, merge collisions and shared posting lists
// common, and the arity-3 relation grows large enough for long probe
// clusters in the dedup table.
var (
	opsRels = []struct {
		name  string
		arity int
	}{{"R", 1}, {"S", 2}, {"T", 3}}
	opsPool = []Value{
		Const("a"), Const("b"), Const("c"), Const("d"), Const("e"),
		Null(1), Null(2), Null(3), Null(4), Null(5),
	}
)

// modelRel is one relation of the model: the tuple slots with their
// tombstones and a map from each live tuple's key to its slot.
type modelRel struct {
	tuples []Tuple
	dead   []bool
	keys   map[TupleKey]int
}

type modelInstance map[string]*modelRel

func (m modelInstance) clone() modelInstance {
	c := make(modelInstance, len(m))
	for name, r := range m {
		keys := make(map[TupleKey]int, len(r.keys))
		for k, i := range r.keys {
			keys[k] = i
		}
		c[name] = &modelRel{slices.Clone(r.tuples), slices.Clone(r.dead), keys}
	}
	return c
}

func (m modelInstance) rel(name string) *modelRel {
	r, ok := m[name]
	if !ok {
		r = &modelRel{keys: make(map[TupleKey]int)}
		m[name] = r
	}
	return r
}

func (m modelInstance) add(name string, t Tuple) bool {
	r := m.rel(name)
	k := KeyOf(t)
	if _, ok := r.keys[k]; ok {
		return false
	}
	r.keys[k] = len(r.tuples)
	r.tuples = append(r.tuples, t)
	r.dead = append(r.dead, false)
	return true
}

func (r *modelRel) hasDead() bool { return slices.Contains(r.dead, true) }

func (m modelInstance) popLast(name string) Tuple {
	r := m[name]
	n := len(r.tuples) - 1
	t := r.tuples[n]
	delete(r.keys, KeyOf(t))
	r.tuples, r.dead = r.tuples[:n], r.dead[:n]
	return t
}

// merge rewrites from to to in ascending slot order; a rewrite that
// collides keeps the copy with the smaller slot and tombstones the
// other. It returns the changed live slots of each relation.
func (m modelInstance) merge(from, to Value) map[string][]int {
	out := make(map[string][]int)
	for name, r := range m {
		for i, old := range r.tuples {
			if r.dead[i] || !slices.Contains(old, from) {
				continue
			}
			neu := old.Clone()
			for p, v := range neu {
				if v == from {
					neu[p] = to
				}
			}
			delete(r.keys, KeyOf(old))
			k := KeyOf(neu)
			if j, ok := r.keys[k]; ok {
				if j < i {
					r.dead[i] = true
					continue
				}
				r.dead[j] = true
			}
			r.tuples[i] = neu
			r.keys[k] = i
			out[name] = append(out[name], i)
		}
	}
	return out
}

// byteReader hands out the fuzz bytes one at a time, then zeros.
type byteReader struct{ b []byte }

func (br *byteReader) next() int {
	if len(br.b) == 0 {
		return 0
	}
	x := br.b[0]
	br.b = br.b[1:]
	return int(x)
}

func (br *byteReader) value() Value { return opsPool[br.next()%len(opsPool)] }

// lineage is an instance the current one descends from by clones,
// with its model and its arrays (relationArrays) when it was cloned.
type lineage struct {
	inst   *Instance
	model  modelInstance
	arrays []int
}

// overlayCoverage counts the overlay paths a run reached: writes that
// copied an overlay whose tail had passed half of its base, so the copy
// was flattened, and merge rewrites, tombstones and pops that landed
// below len(base), so the write flattened first.
type overlayCoverage struct {
	pastThreshold, mergeBelow, tombstoneBelow, popBelow int
}

func (c *overlayCoverage) add(o overlayCoverage) {
	c.pastThreshold += o.pastThreshold
	c.mergeBelow += o.mergeBelow
	c.tombstoneBelow += o.tombstoneBelow
	c.popBelow += o.popBelow
}

// writeBase returns len(base) of the relation a write to name lands
// in — the relation itself when inst owns it, else the copy clone
// makes of it — and counts a copy flattened past the threshold.
func (c *overlayCoverage) writeBase(inst *Instance, name string) int {
	s, ok := inst.rels[name]
	switch {
	case !ok:
		return 0
	case s.owned:
		return len(s.r.base)
	case s.r.nDead > 0:
		return 0
	case len(s.r.base) == 0:
		return len(s.r.tuples)
	case 2*len(s.r.tuples) > len(s.r.base):
		c.pastThreshold++
		return 0
	}
	return len(s.r.base)
}

// mergeValue runs inst.MergeValue(from, to) and counts the overlay
// paths it reaches.
func (c *overlayCoverage) mergeValue(inst *Instance, from, to Value) map[string][]int {
	if from == to {
		return inst.MergeValue(from, to)
	}
	rewritten, live := slotsWith(inst, from), liveSlots(inst)
	bases := make(map[string]int, len(rewritten))
	for name := range rewritten {
		bases[name] = c.writeBase(inst, name)
	}
	got := inst.MergeValue(from, to)
	for name, base := range bases {
		if rewritten[name][0] < base {
			c.mergeBelow++
		}
		r := inst.Relation(name)
		for i := 0; i < base; i++ {
			if live[name][i] && !r.Live(i) {
				c.tombstoneBelow++
				break
			}
		}
	}
	return got
}

// removeLast runs inst.RemoveLastTuple(name) and counts a pop below
// len(base).
func (c *overlayCoverage) removeLast(inst *Instance, name string) Tuple {
	if inst.Relation(name).Len() <= c.writeBase(inst, name) {
		c.popBelow++
	}
	return inst.RemoveLastTuple(name)
}

// slotsWith returns, per relation of inst, the ascending live slots
// whose tuple carries v.
func slotsWith(inst *Instance, v Value) map[string][]int {
	out := map[string][]int{}
	for name, s := range inst.rels {
		for i := 0; i < s.r.Len(); i++ {
			if s.r.Live(i) && slices.Contains(s.r.TupleAt(i), v) {
				out[name] = append(out[name], i)
			}
		}
	}
	return out
}

// liveSlots returns, per relation of inst, which slots are live.
func liveSlots(inst *Instance) map[string][]bool {
	out := map[string][]bool{}
	for name, s := range inst.rels {
		for i := 0; i < s.r.Len(); i++ {
			out[name] = append(out[name], s.r.Live(i))
		}
	}
	return out
}

// runRelationOps applies the op sequence encoded in ops to a fresh
// instance and a model and checks the two against each other: after
// every step when everyStep is set, else at the end and around each
// clone. A clone step writes the clone one to three times and may go
// on with it, so clones of written clones make chains up to four
// ancestors deep; none of the ancestors may change. A chain step
// clones and writes the current instance four to eleven times in a
// row, carrying an overlay's tail past half of its base. It returns
// the overlay paths the run reached.
func runRelationOps(t *testing.T, ops []byte, everyStep bool) overlayCoverage {
	t.Helper()
	var cov overlayCoverage
	br := &byteReader{b: ops}
	inst, model := NewInstance(), make(modelInstance)
	var ancestors []lineage // oldest first
	for step := 0; len(br.b) > 0; step++ {
		switch op := br.next() % 16; {
		case op == 14:
			for n := 4 + br.next()%8; n > 0; n-- {
				c, cm := inst.Clone(), model.clone()
				if ancestors = append(ancestors, lineage{inst, model, relationArrays(inst)}); len(ancestors) > 4 {
					ancestors = ancestors[1:]
				}
				applyRelationOp(t, br, c, cm, &cov)
				inst, model = c, cm
			}
			for _, a := range ancestors {
				if !slices.Equal(a.arrays, relationArrays(a.inst)) {
					t.Fatalf("step %d: a write along a chain of clones changed the arrays of an instance it descends from", step)
				}
				checkAgainstModel(t, step, a.inst, a.model)
			}
		case op >= 12:
			// Clone, write through the clone, and check that the
			// writes left the source and its ancestors alone — spare
			// capacity included, so a write into an array they share
			// is caught.
			c, cm := inst.Clone(), model.clone()
			src := lineage{inst, model, relationArrays(inst)}
			for n := 1 + br.next()%3; n > 0; n-- {
				applyRelationOp(t, br, c, cm, &cov)
			}
			for _, a := range append(ancestors, src) {
				if !slices.Equal(a.arrays, relationArrays(a.inst)) {
					t.Fatalf("step %d: a write through a clone changed the arrays of an instance it descends from", step)
				}
				checkAgainstModel(t, step, a.inst, a.model)
			}
			if br.next()%2 == 0 {
				if ancestors = append(ancestors, src); len(ancestors) > 4 {
					ancestors = ancestors[1:]
				}
				inst, model = c, cm
			}
		default:
			applyRelationOp(t, br, inst, model, &cov)
		}
		if everyStep || len(br.b) == 0 {
			checkAgainstModel(t, step, inst, model)
		}
	}
	return cov
}

// applyRelationOp decodes one write, applies it to inst and model, and
// counts the overlay paths it reaches into cov.
func applyRelationOp(t *testing.T, br *byteReader, inst *Instance, model modelInstance, cov *overlayCoverage) {
	t.Helper()
	spec := opsRels[br.next()%len(opsRels)]
	name := spec.name
	switch br.next() % 6 {
	case 0, 1: // add a tuple, new or not
		tup := make(Tuple, spec.arity)
		for i := range tup {
			tup[i] = br.value()
		}
		want := model.add(name, tup.Clone())
		var got bool
		if br.next()%2 == 0 {
			got = inst.AddTuple(name, tup)
		} else {
			got = inst.AddOwnedTuple(name, tup)
		}
		if got != want {
			t.Fatalf("add %s%v = %v, model says %v", name, tup, got, want)
		}
	case 2: // add a tuple already present
		m := model[name]
		if m == nil || len(m.keys) == 0 {
			return
		}
		i := br.next() % len(m.tuples)
		if m.dead[i] {
			return
		}
		if inst.AddTuple(name, m.tuples[i].Clone()) {
			t.Fatalf("duplicate add of %s%v reported new", name, m.tuples[i])
		}
	case 3: // RemoveLastTuple
		m := model[name]
		if m == nil || len(m.tuples) == 0 || m.hasDead() {
			return
		}
		want := model.popLast(name)
		if got := cov.removeLast(inst, name); !slices.Equal(got, want) {
			t.Fatalf("RemoveLastTuple(%s) = %v, model says %v", name, got, want)
		}
	case 4: // MergeValue
		from, to := br.value(), br.value()
		if from == to {
			return
		}
		want := model.merge(from, to)
		got := cov.mergeValue(inst, from, to)
		if len(got) != len(want) {
			t.Fatalf("MergeValue(%v, %v) changed %v, model says %v", from, to, got, want)
		}
		for rn, idx := range want {
			if !slices.Equal(got[rn], idx) {
				t.Fatalf("MergeValue(%v, %v) changed %v, model says %v", from, to, got, want)
			}
		}
	case 5: // Reserve
		model.rel(name)
		inst.Reserve(name, spec.arity, br.next()%40)
	}
}

// identLen returns the length of the shared identity array, 0 before
// its first use.
func identLen() int {
	if p := ident.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// identBreaks counts the entries below n of the shared identity array
// that do not hold their own index: a write into the array shows as a
// nonzero count however far the array has grown since.
func identBreaks(n int) int {
	p := ident.Load()
	if p == nil {
		return 0
	}
	bad := 0
	for i, x := range (*p)[:min(n, len(*p))] {
		if x != i {
			bad++
		}
	}
	return bad
}

// relationArrays flattens every array the instance's relations can
// reach — each full to its capacity, posting lists of base and own
// alike, and the shared identity array through identBreaks — so a
// comparison catches writes into spare capacity as well as into the
// live elements, and into lists a clone shares.
func relationArrays(inst *Instance) []int {
	var out []int
	names := make([]string, 0, len(inst.rels))
	for name := range inst.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := inst.rels[name].r
		for _, slots := range [][]int32{r.baseSlots, r.slots} {
			out = append(out, -1)
			for _, e := range slots[:cap(slots)] {
				out = append(out, int(e))
			}
		}
		out = append(out, identBreaks(r.Len()))
		for p, idx := range r.posIndex {
			for _, m := range []map[Value][]int{idx.base, idx.own} {
				for _, v := range opsPool {
					if lst, ok := m[v]; ok {
						out = append(out, -1-p)
						out = append(out, lst[:cap(lst)]...)
					}
				}
			}
		}
	}
	return out
}

// checkAgainstModel checks that inst holds exactly the model's slots,
// tombstones, membership and posting lists, and that its indexes are
// coherent.
func checkAgainstModel(t *testing.T, step int, inst *Instance, model modelInstance) {
	t.Helper()
	for _, spec := range opsRels {
		m := model[spec.name]
		r := inst.Relation(spec.name)
		if m == nil {
			if r != nil {
				t.Fatalf("step %d: relation %s exists without a model", step, spec.name)
			}
			continue
		}
		if r.Len() != len(m.tuples) || r.LiveLen() != len(m.keys) {
			t.Fatalf("step %d: %s has %d slots, %d live; model %d, %d",
				step, spec.name, r.Len(), r.LiveLen(), len(m.tuples), len(m.keys))
		}
		for i, tup := range m.tuples {
			if r.Live(i) == m.dead[i] {
				t.Fatalf("step %d: %s slot %d live=%v, model dead=%v", step, spec.name, i, r.Live(i), m.dead[i])
			}
			if !m.dead[i] && !slices.Equal(r.TupleAt(i), tup) {
				t.Fatalf("step %d: %s slot %d = %v, model %v", step, spec.name, i, r.TupleAt(i), tup)
			}
		}
		postings := make([]map[Value][]int, spec.arity)
		for p := range postings {
			postings[p] = make(map[Value][]int)
		}
		for i, tup := range m.tuples {
			if !m.dead[i] {
				for p, v := range tup {
					postings[p][v] = append(postings[p][v], i)
				}
			}
		}
		for p, want := range postings {
			for _, v := range opsPool {
				if got := r.MatchingAt(p, v); !slices.Equal(got, want[v]) {
					t.Fatalf("step %d: %s MatchingAt(%d, %v) = %v, model %v", step, spec.name, p, v, got, want[v])
				}
			}
		}
		// Membership of every tuple over the pool for arities 1 and
		// 2; for arity 3, of the live tuples and, for each, one
		// variant per position.
		probe := func(tup Tuple) {
			_, want := m.keys[KeyOf(tup)]
			if got := r.Contains(tup); got != want {
				t.Fatalf("step %d: %s Contains(%v) = %v, model %v", step, spec.name, tup, got, want)
			}
		}
		switch spec.arity {
		case 1:
			for _, a := range opsPool {
				probe(Tuple{a})
			}
		case 2:
			for _, a := range opsPool {
				for _, b := range opsPool {
					probe(Tuple{a, b})
				}
			}
		default:
			for i, tup := range m.tuples {
				if m.dead[i] {
					continue
				}
				probe(tup)
				for p := range tup {
					variant := tup.Clone()
					variant[p] = opsPool[(i+p)%len(opsPool)]
					probe(variant)
				}
			}
		}
	}
	checkIndexCoherence(t, inst)
}

// TestRelationOpsMatchModel runs random op sequences through
// runRelationOps, which between them must reach every overlay path.
func TestRelationOpsMatchModel(t *testing.T) {
	var cov overlayCoverage
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 300+rng.Intn(900))
		rng.Read(ops)
		cov.add(runRelationOps(t, ops, true))
	}
	if cov.pastThreshold == 0 || cov.mergeBelow == 0 || cov.tombstoneBelow == 0 || cov.popBelow == 0 {
		t.Fatalf("the op sequences missed an overlay path: %+v", cov)
	}
	t.Logf("overlay paths reached: %+v", cov)
}

// FuzzRelationOps decodes the fuzz input as an op sequence for
// runRelationOps. Inputs are cut at 192 bytes and checked at the end
// rather than after every step, which keeps an execution fast enough
// for the fuzzer's quadratic input minimization;
// TestRelationOpsMatchModel covers the long sequences.
func FuzzRelationOps(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 16, 64, 192} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 192 {
			ops = ops[:192]
		}
		runRelationOps(t, ops, false)
	})
}

// TestSharedIdentConcurrentGrowth: goroutines that each fill their own
// relation with fresh values grow the shared identity array at the
// same time, and every relation still ends up coherent: no window
// points past the array it was cut from, and no array was written
// after it was published.
func TestSharedIdentConcurrentGrowth(t *testing.T) {
	const workers, n = 4, 3000
	insts := make([]*Instance, workers)
	var wg sync.WaitGroup
	for w := range insts {
		inst := NewInstance()
		insts[w] = inst
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				inst.Add("R", Const(fmt.Sprintf("w%d-%d", w, k)), Null(k))
			}
		}()
	}
	wg.Wait()
	for _, inst := range insts {
		checkIndexCoherence(t, inst)
	}
}
