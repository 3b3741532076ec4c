package rel

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// deepCopy is the copy-on-write model's reference: an instance whose
// relations are all rebuilt up front from their tuple slots, base and
// tail alike, into flat relations it owns, sharing no tuple slice,
// dedup table or index with inst — the semantics Clone had before
// relations were shared. Slot indexes and tombstones are kept, so
// MergeValue reports the same indexes on either side.
func deepCopy(inst *Instance) *Instance {
	c := NewInstance()
	for name, s := range inst.rels {
		src := s.r
		r := newRelation(name, src.arity)
		r.tuples = make([]Tuple, src.Len())
		for i := range r.tuples {
			r.tuples[i] = src.TupleAt(i)
		}
		r.dead, r.nDead = slices.Clone(src.dead), src.nDead
		r.reserveSlots(r.LiveLen())
		for i, t := range r.tuples {
			if !r.Live(i) {
				continue
			}
			for p, v := range t {
				r.setPosting(p, v, append(r.MatchingAt(p, v), i))
			}
		}
		c.rels[name] = relSlot{r: r, owned: true}
	}
	return c
}

// cowArity fixes the relations the property test writes, with small
// value domains so adds collide and merges tombstone.
var cowArity = map[string]int{"R": 2, "S": 1, "T": 3}

func cowValue(rng *rand.Rand) Value {
	if rng.Intn(3) == 0 {
		return Null(1 + rng.Intn(4))
	}
	return Const(fmt.Sprintf("c%d", rng.Intn(4)))
}

func cowTuple(rng *rand.Rand, arity int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		t[i] = cowValue(rng)
	}
	return t
}

// TestCopyOnWriteMatchesDeepCopy runs random Clone, Restrict and Union
// steps interleaved with every write (AddTuple, AddOwnedTuple, Reserve,
// RemoveLastTuple, MergeValue) on sources and copies alike, and after
// every step compares each instance's facts with a model that deep
// copies instead of sharing. A chain step clones 2–10 times in a row,
// writing each clone before cloning it again, so copies of copies fork
// postings that are themselves forked and flattened, and overlays grow
// tails past half of their base. A write leaking into an instance that
// shares the relation shows up as a mismatch or as incoherent indexes.
// Between them the seeds must reach every overlay path.
func TestCopyOnWriteMatchesDeepCopy(t *testing.T) {
	names := []string{"R", "S", "T"}
	var cov overlayCoverage
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cow := []*Instance{NewInstance()}
		model := []*Instance{NewInstance()}
		for step := 0; step < 400; step++ {
			k := rng.Intn(len(cow))
			c, m := cow[k], model[k]
			op := ""
			// write applies one random write to c and its model m, and
			// checks that it left c sole holder of what it wrote.
			write := func(c, m *Instance) {
				if c.Frozen() {
					return
				}
				var wrote []string // relations of c the write changed
				name := names[rng.Intn(len(names))]
				switch rng.Intn(5) {
				case 0:
					op = "AddTuple"
					tup := cowTuple(rng, cowArity[name])
					got, want := c.AddTuple(name, tup), m.AddTuple(name, tup)
					if got != want {
						t.Fatalf("seed %d step %d: AddTuple = %v, model %v", seed, step, got, want)
					}
					if got {
						wrote = []string{name}
					}
				case 1:
					op = "AddOwnedTuple"
					tup := cowTuple(rng, cowArity[name])
					got, want := c.AddOwnedTuple(name, tup), m.AddOwnedTuple(name, tup.Clone())
					if got != want {
						t.Fatalf("seed %d step %d: AddOwnedTuple = %v, model %v", seed, step, got, want)
					}
					if got {
						wrote = []string{name}
					}
				case 2:
					op = "Reserve"
					n := rng.Intn(5)
					c.Reserve(name, cowArity[name], n)
					m.Reserve(name, cowArity[name], n)
					wrote = []string{name}
				case 3:
					op = "RemoveLastTuple"
					r := m.Relation(name)
					if r == nil || r.Len() == 0 || r.nDead > 0 {
						return
					}
					if got, want := cov.removeLast(c, name), m.RemoveLastTuple(name); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: RemoveLastTuple = %v, model %v", seed, step, got, want)
					}
					wrote = []string{name}
				case 4:
					op = "MergeValue"
					from, to := Null(1+rng.Intn(4)), cowValue(rng)
					got, want := cov.mergeValue(c, from, to), m.MergeValue(from, to)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: MergeValue = %v, model %v", seed, step, got, want)
					}
					for name := range got {
						wrote = append(wrote, name)
					}
				}
				for _, name := range wrote {
					for i, o := range cow {
						if o != c && o.Relation(name) == c.Relation(name) {
							t.Fatalf("seed %d step %d: %s left %s shared with instance %d", seed, step, op, name, i)
						}
					}
				}
			}
			switch rng.Intn(11) {
			case 0:
				op = "Clone"
				cow, model = append(cow, c.Clone()), append(model, deepCopy(m))
			case 1:
				op = "Restrict"
				s := NewSchema()
				for _, name := range names {
					if rng.Intn(2) == 0 {
						s.Add(name, cowArity[name]) //nolint:errcheck // arities fixed by cowArity
					}
				}
				cow, model = append(cow, c.Restrict(s)), append(model, deepCopy(m).Restrict(s))
			case 2:
				op = "Union"
				b := rng.Intn(len(cow))
				u := deepCopy(m)
				u.AddAll(model[b])
				cow, model = append(cow, Union(c, cow[b])), append(model, u)
			case 3:
				op = "Freeze"
				c.Freeze()
				m.Freeze()
			case 4:
				for depth := 2 + rng.Intn(9); depth > 0; depth-- {
					c, m = c.Clone(), deepCopy(m)
					cow, model = append(cow, c), append(model, m)
					for n := 1 + rng.Intn(3); n > 0; n-- {
						write(c, m)
					}
				}
				op = "chain of " + op
			default:
				write(c, m)
			}
			for len(cow) > 8 {
				drop := rng.Intn(len(cow))
				cow, model = append(cow[:drop], cow[drop+1:]...), append(model[:drop], model[drop+1:]...)
			}
			for i := range cow {
				if got, want := cow[i].Facts(), model[i].Facts(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (%s on instance %d): instance %d facts\n%v\nmodel\n%v", seed, step, op, k, i, got, want)
				}
				checkIndexCoherence(t, cow[i])
			}
		}
	}
	if cov.pastThreshold == 0 || cov.mergeBelow == 0 || cov.tombstoneBelow == 0 || cov.popBelow == 0 {
		t.Fatalf("the random steps missed an overlay path: %+v", cov)
	}
	t.Logf("overlay paths reached: %+v", cov)
}

// TestCloneOfFrozenWritesNothing: cloning, restricting or uniting a
// frozen instance leaves its relation slots untouched, which is what
// lets many goroutines clone one frozen instance at once.
func TestCloneOfFrozenWritesNothing(t *testing.T) {
	inst := NewInstance()
	inst.Add("R", Const("a"), Const("b"))
	inst.Add("S", Const("a"))
	inst.Freeze()
	before := make(map[string]relSlot, len(inst.rels))
	for name, s := range inst.rels {
		before[name] = s
	}
	c := inst.Clone()
	inst.Restrict(NewSchema())
	Union(NewInstance(), inst)
	if !reflect.DeepEqual(inst.rels, before) {
		t.Fatal("sharing a frozen instance rewrote its relation slots")
	}
	c.Add("R", Const("c"), Const("d"))
	if inst.NumFacts() != 2 || c.NumFacts() != 3 {
		t.Fatalf("write to the clone leaked: source %d facts, clone %d", inst.NumFacts(), c.NumFacts())
	}
}

// TestOnlyFirstShareWrites: only the first Clone of a relation an
// unfrozen instance owns writes its slot. Once shared, further Clones
// store nothing into the source, so under -race they run alongside
// readers of it.
func TestOnlyFirstShareWrites(t *testing.T) {
	inst := NewInstance()
	for k := 0; k < 8; k++ {
		inst.Add("R", Const(fmt.Sprint(k)), Const("b"))
		inst.Add("S", Const(fmt.Sprint(k)))
	}
	onlyR := NewSchema()
	if err := onlyR.Add("R", 2); err != nil {
		t.Fatal(err)
	}
	inst.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				inst.Clone()
				inst.Restrict(onlyR)
			}
		}()
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				if len(inst.Facts()) != 16 {
					t.Error("source changed under concurrent clones")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentWritesToClonesOfFrozenBase: eight goroutines each
// clone one frozen instance and write their clone — appends into the
// tail, a merge inside the tail, a clone of the clone, and a merge
// that rewrites base tuples and so flattens — while all of them read
// the base's tuples and dedup table. Under -race any write into the
// shared arrays is reported; without it, every clone must still match
// a model written alone and the base must keep its facts.
func TestConcurrentWritesToClonesOfFrozenBase(t *testing.T) {
	base := NewInstance()
	for k := 0; k < 2000; k++ {
		base.Add("R", Const(fmt.Sprintf("c%d", k)), Null(k%100))
	}
	base.Freeze()
	want := base.Facts()
	// write writes inst and returns the clone of it it wrote last.
	write := func(inst *Instance, g int) *Instance {
		for k := 0; k < 50; k++ {
			inst.Add("R", Const(fmt.Sprintf("g%d-%d", g, k)), Null(1000+g*10+k%10))
		}
		inst.MergeValue(Null(1000+g*10), Null(1000+g*10+1))
		c := inst.Clone()
		c.Add("R", Const(fmt.Sprintf("g%d-late", g)), Null(g))
		c.MergeValue(Null(g), Const(fmt.Sprintf("m%d", g)))
		return c
	}
	var wg sync.WaitGroup
	got := make([][2]*Instance, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := base.Clone()
			got[g] = [2]*Instance{c, write(c, g)}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(base.Facts(), want) {
		t.Fatal("writes to clones changed the frozen base")
	}
	for g, insts := range got {
		m := deepCopy(base)
		models := [2]*Instance{m, write(m, g)}
		for k, inst := range insts {
			if !reflect.DeepEqual(inst.Facts(), models[k].Facts()) {
				t.Fatalf("goroutine %d: clone %d diverged from its model", g, k)
			}
			checkIndexCoherence(t, inst)
		}
	}
}
