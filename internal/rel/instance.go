package rel

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Relation is the extension of one relation symbol inside an instance:
// a set of tuples with a fixed arity, plus indexes that accelerate
// trigger and homomorphism search. The dedup table is a pointer-free
// array, which the GC does not scan, and indexing a tuple allocates no
// per-tuple object.
type Relation struct {
	name  string
	arity int

	// base and baseSlots are the tuples and the dedup table of the
	// relation this one was cloned from, shared read-only with it and
	// with its other clones and never written: base is a cap-limited
	// window of its tuple slice, and baseSlots its dedup table over
	// exactly those indexes. tuples holds this relation's own tail, at
	// indexes len(base)…, and slots is the dedup table of the tail
	// alone. A relation built from scratch, or flattened, has neither.
	// Every tuple of base is live: a relation with tombstones is cloned
	// flat, and a write below len(base) flattens first (see flatten).
	base      []Tuple
	baseSlots []int32
	tuples    []Tuple

	// slots is the dedup table: open addressing with linear probing
	// over tuple indexes, each stored as index+1 so that 0 marks an
	// empty slot. Its length is a power of two and at least twice the
	// number of entries, one per live tuple of the tail. A tuple is
	// hashed by hashTuple and compared against the tuple at the slot's
	// index, so the table stores no key; deletion shifts the rest of
	// the probe cluster back instead of leaving tombstones. Nothing
	// reads the table in slot order except clone and flatten, which
	// copy it whole.
	slots []int32

	// posIndex[i] maps a value to the ascending indexes of the live
	// tuples carrying that value at position i (see postings). A value
	// carried by one tuple gets no list of its own: its entry is the
	// cap-1 window singleton(idx) into the shared identity array, and
	// any append to it copies first. Lists hold live indexes only:
	// mergeValue removes tombstoned tuples from every list they belong
	// to.
	posIndex []postings

	// dead marks tuple slots tombstoned by mergeValue: a merge that
	// makes two tuples collide keeps the earlier copy and tombstones
	// the later one instead of compacting, so surviving tuples keep
	// their indexes (the chase's watermark invariant). dead is nil
	// until the first tombstone and may be shorter than tuples —
	// slots beyond its length are live. Compact drops dead slots.
	dead  []bool
	nDead int
}

// hashSeed seeds hashTuple. The dedup table is never read in slot
// order where it could reach output, so a per-process seed changes no
// result.
var hashSeed = maphash.MakeSeed()

// hashTuple hashes the value sequence of t.
func hashTuple(t Tuple) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = bits.RotateLeft64(h, 23)*0x9e3779b97f4a7c15 ^ maphash.Comparable(hashSeed, v)
	}
	return h
}

// tableSize returns the dedup table length for n entries: the least
// power of two that keeps the load at or below one half.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// postings is the position index of one position, copy-on-write
// across clones. base is shared read-only with the relation it was
// cloned from, and with that relation's other clones; own holds this
// relation's changes to it. An entry of own shadows base's entry for
// the same value, and an empty one means the value has no list. Every
// multi-element list in own is private to this relation, so it may be
// written in place; a list read from base is copied before any write.
type postings struct {
	base map[Value][]int
	own  map[Value][]int
}

// get returns the posting list of v and whether it is one of own's
// lists, which may be written in place.
func (p *postings) get(v Value) (lst []int, mine bool) {
	if lst, ok := p.own[v]; ok {
		return lst, true
	}
	return p.base[v], false
}

// fork returns the postings of a clone of the relation holding p,
// which is never written again: the clone shares p's lists read-only
// and copies only p's changes. Once the changes pass half of base's
// entries they are flattened with base into the clone's fresh base,
// so chains of clones never pile up changes.
func (p *postings) fork() postings {
	switch {
	case len(p.own) == 0:
		return postings{base: p.base, own: make(map[Value][]int)}
	case p.base == nil:
		return postings{base: p.own, own: make(map[Value][]int)}
	case 2*len(p.own) > len(p.base):
		flat := make(map[Value][]int, len(p.base)+len(p.own))
		for v, lst := range p.base {
			flat[v] = lst
		}
		for v, lst := range p.own {
			if len(lst) == 0 {
				delete(flat, v)
			} else {
				flat[v] = lst
			}
		}
		return postings{base: flat, own: make(map[Value][]int)}
	}
	// The copied lists share one array, each a cap-limited window of
	// it, so every copy stays private to its entry.
	n := 0
	for _, lst := range p.own {
		if len(lst) > 1 {
			n += len(lst)
		}
	}
	buf := make([]int, n)
	own := make(map[Value][]int, len(p.own))
	for v, lst := range p.own {
		if len(lst) > 1 {
			cp := buf[:len(lst):len(lst)]
			copy(cp, lst)
			buf, lst = buf[len(lst):], cp
		}
		own[v] = lst
	}
	return postings{base: p.base, own: own}
}

func newRelation(name string, arity int) *Relation {
	r := &Relation{
		name:     name,
		arity:    arity,
		posIndex: make([]postings, arity),
	}
	for i := range r.posIndex {
		r.posIndex[i].own = make(map[Value][]int)
	}
	return r
}

// Name returns the relation symbol.
func (r *Relation) Name() string { return r.name }

// Arity returns the arity of the relation.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuple slots, including tombstoned ones.
// Tuple indexes range over [0, Len); use Live to skip dead slots.
func (r *Relation) Len() int { return len(r.base) + len(r.tuples) }

// LiveLen returns the number of live (non-tombstoned) tuples.
func (r *Relation) LiveLen() int { return r.Len() - r.nDead }

// Live reports whether the tuple slot at index i is live, i.e. not
// tombstoned by a merge.
func (r *Relation) Live(i int) bool {
	return i >= len(r.dead) || !r.dead[i]
}

// Contains reports whether the tuple is present.
func (r *Relation) Contains(t Tuple) bool {
	return r.Index(t) >= 0
}

// Index returns the index of the live tuple equal to t, or -1 when the
// relation does not hold t.
func (r *Relation) Index(t Tuple) int {
	return r.find(t, hashTuple(t))
}

// MatchingAt returns the indexes of tuples whose i-th position holds v.
// The returned slice is owned by the relation and must not be mutated.
func (r *Relation) MatchingAt(i int, v Value) []int {
	lst, _ := r.posIndex[i].get(v)
	return lst
}

// TupleAt returns the tuple at the given index. The tuple is owned by
// the relation and must not be mutated.
func (r *Relation) TupleAt(i int) Tuple {
	if i < len(r.base) {
		return r.base[i]
	}
	return r.tuples[i-len(r.base)]
}

// find returns the index of the live tuple equal to t, whose hash is
// h, or -1 when the relation does not hold t.
func (r *Relation) find(t Tuple, h uint64) int {
	if len(r.baseSlots) > 0 {
		if i := probe(r.baseSlots, r.base, 0, t, h); i >= 0 {
			return i
		}
	}
	if len(r.slots) == 0 {
		return -1
	}
	return probe(r.slots, r.tuples, len(r.base), t, h)
}

// probe looks up t, whose hash is h, in the nonempty dedup table slots
// over tuples, whose first element has index off, and returns its
// index or -1.
func probe(slots []int32, tuples []Tuple, off int, t Tuple, h uint64) int {
	mask := len(slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := int(slots[s])
		if e == 0 {
			return -1
		}
		if slices.Equal(tuples[e-1-off], t) {
			return e - 1
		}
	}
}

// place enters tuple index idx, whose tuple hashes to h and is absent
// from the dedup table slots, into it; the table has room for it.
func place(slots []int32, idx int, h uint64) {
	mask := len(slots) - 1
	s := int(h) & mask
	for slots[s] != 0 {
		s = (s + 1) & mask
	}
	slots[s] = int32(idx + 1)
}

// unindex removes tuple index idx, which lies in the tail, from the
// dedup table. The tuple at idx must still hold the content idx was
// entered under. The entries after it in its probe cluster shift back,
// each into the first free slot its own probe sequence reaches, so
// lookups never need tombstones.
func (r *Relation) unindex(idx int) {
	mask := len(r.slots) - 1
	s := int(hashTuple(r.TupleAt(idx))) & mask
	for int(r.slots[s]) != idx+1 {
		if r.slots[s] == 0 {
			panic("rel: dedup table corrupted during removal")
		}
		s = (s + 1) & mask
	}
	for j := (s + 1) & mask; r.slots[j] != 0; j = (j + 1) & mask {
		home := int(hashTuple(r.TupleAt(int(r.slots[j]-1)))) & mask
		// The entry at j may move to the hole at s unless its home
		// lies cyclically in (s, j].
		if (s < j && (home <= s || home > j)) || (s > j && home <= s && home > j) {
			r.slots[s] = r.slots[j]
			s = j
		}
	}
	r.slots[s] = 0
}

// reserveSlots grows the dedup table of the tail to hold n entries,
// re-entering every live tuple of the tail when it grows.
func (r *Relation) reserveSlots(n int) {
	if 2*n <= len(r.slots) {
		return
	}
	r.slots = make([]int32, tableSize(n))
	for k, t := range r.tuples {
		if i := len(r.base) + k; r.Live(i) {
			place(r.slots, i, hashTuple(t))
		}
	}
}

// tailLive returns the number of live tuples in the tail, the entries
// of its dedup table. Every tombstone lies in the tail.
func (r *Relation) tailLive() int { return len(r.tuples) - r.nDead }

// ident is the identity array every relation's singleton posting
// lists are windows into: ident[i] == i for every i. It grows by
// replacement under identMu — a longer array is filled and published —
// and a published array is never written, so windows into an older
// array stay valid and readers need no lock.
var (
	ident   atomic.Pointer[[]int]
	identMu sync.Mutex
)

// singleton returns the posting list holding just idx, a cap-1 window
// into the shared identity array.
func singleton(idx int) []int {
	if p := ident.Load(); p != nil && idx < len(*p) {
		return (*p)[idx : idx+1 : idx+1]
	}
	identMu.Lock()
	defer identMu.Unlock()
	var cur []int
	if p := ident.Load(); p != nil {
		cur = *p
	}
	if idx >= len(cur) {
		next := make([]int, max(2*len(cur), idx+1, 1024))
		for i := range next {
			next[i] = i
		}
		ident.Store(&next)
		cur = next
	}
	return cur[idx : idx+1 : idx+1]
}

// setPosting stores lst, which must be private to r when it has more
// than one element, as the posting list of v at position pos: an empty
// list drops the entry (or shadows base's), and a one-element list
// becomes a singleton window so that every one-element list has cap 1.
func (r *Relation) setPosting(pos int, v Value, lst []int) {
	p := &r.posIndex[pos]
	switch len(lst) {
	case 0:
		if len(p.base[v]) > 0 {
			p.own[v] = nil
		} else {
			delete(p.own, v)
		}
	case 1:
		p.own[v] = singleton(lst[0])
	default:
		p.own[v] = lst
	}
}

// popLast removes the most recently added tuple and returns it. It
// panics when the relation is empty. Because tuple indexes grow
// monotonically and position-index lists are append-only, the popped
// tuple's index sits at the end of every list it belongs to, making the
// removal O(arity).
func (r *Relation) popLast() Tuple {
	n := r.Len()
	if n == 0 {
		panic("rel: popLast on empty relation")
	}
	if r.nDead > 0 {
		// Backtracking solvers never run on merged (tombstoned)
		// relations; refusing keeps the LIFO index argument intact.
		panic("rel: popLast on relation with tombstoned tuples")
	}
	if len(r.tuples) == 0 {
		r.flatten()
	}
	t := r.tuples[len(r.tuples)-1]
	r.unindex(n - 1)
	r.tuples = r.tuples[:len(r.tuples)-1]
	for i, v := range t {
		lst, mine := r.posIndex[i].get(v)
		if len(lst) == 0 || lst[len(lst)-1] != n-1 {
			panic("rel: position index corrupted during popLast")
		}
		lst = lst[:len(lst)-1]
		if !mine && len(lst) > 1 {
			lst = slices.Clone(lst)
		}
		r.setPosting(i, v, lst)
	}
	return t
}

// clone returns a copy of the relation, made when an instance first
// writes a relation it shares (see Instance.own); r itself is never
// written again. The tuples and the dedup table follow postings.fork's
// rule: the copy of a flat r takes r's tuples and table as its base,
// in O(1); the copy of an overlay shares r's base and copies only r's
// tail and tail table; and once the tail passes half of base, or when
// r holds tombstones, the copy is flattened into one fresh slice and
// table. A chain of clones that each append a batch therefore copies
// no more than its batches between two flattenings. The position
// indexes are forked (see postings.fork). The stored Tuple arrays are
// shared, which is safe because tuples are never mutated in place once
// added (mergeValue replaces a rewritten tuple, popLast only drops the
// last entry).
func (r *Relation) clone() *Relation {
	c := &Relation{
		name:     r.name,
		arity:    r.arity,
		posIndex: make([]postings, len(r.posIndex)),
	}
	for i := range r.posIndex {
		c.posIndex[i] = r.posIndex[i].fork()
	}
	switch {
	case r.nDead > 0 || (len(r.base) > 0 && 2*len(r.tuples) > len(r.base)):
		c.tuples, c.slots = r.flatCopy()
		c.dead, c.nDead = slices.Clone(r.dead), r.nDead
	case len(r.base) == 0:
		n := len(r.tuples)
		c.base, c.baseSlots = r.tuples[:n:n], r.slots
		c.tuples, c.slots = make([]Tuple, 0, tailRoom), make([]int32, tableSize(tailRoom))
	default:
		c.base, c.baseSlots = r.base, r.baseSlots
		c.tuples = withRoom(len(r.tuples), r.tuples)
		c.slots = slices.Clone(r.slots)
	}
	return c
}

// tailRoom is the number of tuples a clone has room for before its
// tuple slice or dedup table first grows: a batch of appends takes one
// allocation of each, not one per doubling.
const tailRoom = 32

// withRoom returns the concatenation of parts, which hold n tuples, in
// a fresh slice with room for the writes that follow.
func withRoom(n int, parts ...[]Tuple) []Tuple {
	out := make([]Tuple, 0, n+n/8+tailRoom)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// flatCopy returns every tuple slot of r in one fresh slice and a fresh
// dedup table over all of them. It copies base's table and enters the
// tail into it when that table is large enough, and otherwise enters
// every live tuple anew.
func (r *Relation) flatCopy() ([]Tuple, []int32) {
	n := r.Len()
	tuples := withRoom(n, r.base, r.tuples)
	if len(r.base) == 0 {
		return tuples, slices.Clone(r.slots)
	}
	slots := make([]int32, max(len(r.baseSlots), tableSize(n-r.nDead)))
	from := 0
	if len(slots) == len(r.baseSlots) {
		copy(slots, r.baseSlots)
		from = len(r.base)
	}
	for i := from; i < n; i++ {
		if r.Live(i) {
			place(slots, i, hashTuple(tuples[i]))
		}
	}
	return tuples, slots
}

// flatten turns an overlay into a flat relation holding the same
// tuples at the same indexes, before a write below len(base).
func (r *Relation) flatten() {
	r.tuples, r.slots = r.flatCopy()
	r.base, r.baseSlots = nil, nil
}

// addOwned inserts t unless it is already present, storing t itself:
// the caller hands over ownership and must never mutate t afterwards.
func (r *Relation) addOwned(t Tuple) bool {
	h := hashTuple(t)
	if r.find(t, h) >= 0 {
		return false
	}
	r.insert(t, h)
	return true
}

// insert appends t, which hashes to h and is absent, and indexes it.
func (r *Relation) insert(t Tuple, h uint64) {
	idx := r.Len()
	if idx >= math.MaxInt32 {
		panic("rel: relation " + r.name + " exceeds the dedup table's index range")
	}
	r.reserveSlots(r.tailLive() + 1)
	r.tuples = append(r.tuples, t)
	place(r.slots, idx, h)
	for i, v := range t {
		p := &r.posIndex[i]
		switch lst, mine := p.get(v); {
		case len(lst) == 0:
			p.own[v] = singleton(idx)
		case mine:
			p.own[v] = append(lst, idx)
		default:
			p.own[v] = append(slices.Clip(lst), idx)
		}
	}
}

// removeFromIndex drops idx from the position-index list of v at
// position pos. The list is sorted ascending (add appends monotonically
// growing indexes and removals preserve order), so the slot is found by
// binary search; a miss means the index is corrupted.
func (r *Relation) removeFromIndex(pos int, v Value, idx int) {
	lst, mine := r.posIndex[pos].get(v)
	at := sort.SearchInts(lst, idx)
	if at >= len(lst) || lst[at] != idx {
		panic("rel: position index corrupted during merge")
	}
	switch {
	case mine:
		lst = append(lst[:at], lst[at+1:]...)
	case len(lst) > 2:
		lst = slices.Concat(lst[:at], lst[at+1:])
	case at == 0: // at most one index remains, which setPosting only reads
		lst = lst[1:]
	default:
		lst = lst[:at]
	}
	r.setPosting(pos, v, lst)
}

// insertIntoIndex adds idx to the position-index list of v at position
// pos, keeping the list sorted.
func (r *Relation) insertIntoIndex(pos int, v Value, idx int) {
	lst, mine := r.posIndex[pos].get(v)
	if len(lst) == 0 {
		r.setPosting(pos, v, singleton(idx))
		return
	}
	if !mine {
		lst = slices.Clip(lst)
	}
	at := sort.SearchInts(lst, idx)
	lst = append(lst, 0)
	copy(lst[at+1:], lst[at:])
	lst[at] = idx
	r.setPosting(pos, v, lst)
}

// tombstone marks the tuple slot at idx, which lies in the tail, dead,
// removing its position-index entries so lookups never see it; the
// slot itself stays so later tuples keep their indexes. The caller has
// already removed idx from the dedup table.
func (r *Relation) tombstone(idx int) {
	for i, v := range r.TupleAt(idx) {
		r.removeFromIndex(i, v, idx)
	}
	if n := r.Len(); len(r.dead) < n {
		grown := make([]bool, n)
		copy(grown, r.dead)
		r.dead = grown
	}
	r.dead[idx] = true
	r.nDead++
}

// holds reports whether some live tuple carries v.
func (r *Relation) holds(v Value) bool {
	for i := range r.posIndex {
		if len(r.MatchingAt(i, v)) > 0 {
			return true
		}
	}
	return false
}

// mergeValue rewrites every live tuple carrying from so it holds to
// instead, in place. A rewrite that collides with an existing tuple
// keeps the copy with the smaller index and tombstones the other —
// exactly the first-occurrence-wins dedup a full rebuild (MapValues)
// performs, so the surviving tuples and their relative order match the
// rebuild byte for byte, while surviving indexes stay put. It returns
// the sorted indexes of live tuples whose content changed. A rewrite
// below len(base) flattens the relation first; every other write lands
// in the tail, since a colliding tuple that dies lies past the one
// rewritten.
func (r *Relation) mergeValue(from, to Value) []int {
	var affected []int
	for i := 0; i < r.arity; i++ {
		affected = append(affected, r.MatchingAt(i, from)...)
	}
	if len(affected) == 0 {
		return nil
	}
	sort.Ints(affected)
	if affected[0] < len(r.base) {
		r.flatten()
	}
	changed := make([]int, 0, len(affected))
	prev := -1
	for _, idx := range affected {
		if idx == prev { // same tuple matched at several positions
			continue
		}
		prev = idx
		old := r.TupleAt(idx)
		neu := old.Clone()
		for i, v := range neu {
			if v == from {
				neu[i] = to
			}
		}
		r.unindex(idx) // while the tuple at idx still holds old
		h := hashTuple(neu)
		if j := r.find(neu, h); j >= 0 {
			if j < idx {
				// The earlier copy survives unchanged; idx dies.
				r.tombstone(idx)
				continue
			}
			// idx survives the collision; the later copy dies.
			r.unindex(j)
			r.tombstone(j)
		}
		r.tuples[idx-len(r.base)] = neu
		place(r.slots, idx, h)
		for i, v := range old {
			if v == from {
				r.removeFromIndex(i, v, idx)
				r.insertIntoIndex(i, to, idx)
			}
		}
		changed = append(changed, idx)
	}
	return changed
}

// Instance is a finite set of facts over a set of relations. The zero
// value is not usable; construct instances with NewInstance.
//
// Copy-on-write: Clone, Restrict and Union share each *Relation with
// the instance they return instead of copying it. Neither side owns a
// shared relation; the first write through either one (AddTuple,
// AddOwnedTuple, Reserve, RemoveLastTuple, MergeValue and the methods
// built on them) copies that relation for the writer alone. Sharing
// marks the source's relations as shared, so Clone, Restrict and Union
// of an unfrozen instance count as writes to it (only the first share
// of a relation the instance owns stores anything); a frozen instance is
// never written, so it keeps its marks and may be cloned from many
// goroutines at once. A *Relation returned by Relation stays valid
// only until that instance's next write.
//
// Concurrency: an Instance is safe for concurrent reads as long as no
// goroutine writes it. Instances shared between concurrent requests
// (cached chase results, registered instances, compiled settings) rely
// on a freeze-after-build discipline: they are fully built by one
// goroutine, then only read while shared. Freeze turns that
// discipline into a checked invariant.
type Instance struct {
	rels   map[string]relSlot
	frozen bool
	// nulls memoizes HasNulls once the instance is frozen. Atomic
	// because frozen instances are read by many goroutines at once.
	nulls atomic.Uint32
}

// relSlot is one relation of an instance. owned is false while the
// relation may be shared with another instance; the instance then
// copies it before its first write to it.
type relSlot struct {
	r     *Relation
	owned bool
}

// States of Instance.nulls.
const (
	nullsUnknown uint32 = iota
	nullsNone
	nullsSome
)

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: make(map[string]relSlot)}
}

// Add inserts the fact R(args) and reports whether it was newly added.
// The relation is created on first use with arity len(args); adding a
// tuple of different arity to an existing relation panics, because it
// indicates a schema violation upstream that must not be masked.
func (inst *Instance) Add(relName string, args ...Value) bool {
	return inst.AddTuple(relName, Tuple(args))
}

// Freeze marks the instance immutable: any subsequent mutation panics.
// Freezing is idempotent and cannot be undone. It exists to enforce the
// freeze-after-build discipline: an instance shared between goroutines
// must already be frozen, or at least never mutated while shared.
// Clones of a frozen instance are mutable again.
func (inst *Instance) Freeze() { inst.frozen = true }

// Frozen reports whether Freeze has been called.
func (inst *Instance) Frozen() bool { return inst.frozen }

func (inst *Instance) mutable(op string) {
	if inst.frozen {
		panic("rel: " + op + " on frozen instance")
	}
}

// own returns the relation in slot s, inst's slot for name, ready for
// a write: a shared relation is first copied into a slot inst owns.
func (inst *Instance) own(name string, s relSlot) *Relation {
	if !s.owned {
		s = relSlot{r: s.r.clone(), owned: true}
		inst.rels[name] = s
	}
	return s.r
}

// lend shares s, inst's slot for relation name, with out. Neither
// instance owns the relation afterwards, so whichever writes it first
// copies it. Only the first share of a relation inst owns writes inst's
// slot: a frozen lender, or a slot already shared, is left as it is.
func (inst *Instance) lend(out *Instance, name string, s relSlot) {
	out.rels[name] = relSlot{r: s.r}
	if s.owned && !inst.frozen {
		inst.rels[name] = relSlot{r: s.r}
	}
}

// ShareRelation makes src's relation name a relation of inst too,
// shared copy-on-write the way Clone shares it, so it counts as a write
// to both. It replaces any relation of that name inst held, and panics
// if src has none. Decoders use it to reuse a relation they already
// built from equal bytes.
func (inst *Instance) ShareRelation(src *Instance, name string) {
	inst.mutable("ShareRelation")
	s, ok := src.rels[name]
	if !ok {
		panic("rel: ShareRelation of absent relation " + name)
	}
	src.lend(inst, name, s)
}

// AddTuple inserts the fact R(t) and reports whether it was newly added.
func (inst *Instance) AddTuple(relName string, t Tuple) bool {
	return inst.add(relName, t, "AddTuple", true)
}

// AddOwnedTuple is AddTuple for callers that transfer ownership of t:
// the tuple is stored without the defensive copy, so the caller must
// never mutate it afterwards. Decoders and the chase, which build
// tuples in freshly allocated memory, use it to avoid doubling their
// tuple allocations.
func (inst *Instance) AddOwnedTuple(relName string, t Tuple) bool {
	return inst.add(relName, t, "AddOwnedTuple", false)
}

// add inserts t (a private copy of it when copyTuple is set) unless the
// relation already holds it. A duplicate writes nothing, so it never
// copies a shared relation.
func (inst *Instance) add(relName string, t Tuple, op string, copyTuple bool) bool {
	inst.mutable(op)
	s, ok := inst.rels[relName]
	if !ok {
		s = relSlot{r: newRelation(relName, len(t)), owned: true}
		inst.rels[relName] = s
	}
	if s.r.arity != len(t) {
		panic(fmt.Sprintf("rel: arity mismatch adding %s/%d to relation of arity %d", relName, len(t), s.r.arity))
	}
	h := hashTuple(t)
	if s.r.find(t, h) >= 0 {
		return false
	}
	if copyTuple {
		t = t.Clone()
	}
	inst.own(relName, s).insert(t, h)
	return true
}

// Reserve pre-sizes the relation for n more tuples of the given
// arity, creating it if absent: the tuple slice and the dedup table
// are grown once instead of incrementally, on both paths. The
// position-index maps are pre-sized only for a new relation; an
// existing relation's maps grow as tuples arrive. Loaders that know
// tuple counts up front (the snapshot decoder) call it before
// inserting.
func (inst *Instance) Reserve(relName string, arity, n int) {
	inst.mutable("Reserve")
	s, ok := inst.rels[relName]
	if !ok {
		r := &Relation{
			name:     relName,
			arity:    arity,
			tuples:   make([]Tuple, 0, n),
			slots:    make([]int32, tableSize(n)),
			posIndex: make([]postings, arity),
		}
		for i := range r.posIndex {
			r.posIndex[i].own = make(map[Value][]int, n)
		}
		inst.rels[relName] = relSlot{r: r, owned: true}
		return
	}
	if s.r.arity != arity {
		panic(fmt.Sprintf("rel: arity mismatch reserving %s/%d in relation of arity %d", relName, arity, s.r.arity))
	}
	r := inst.own(relName, s)
	r.tuples = slices.Grow(r.tuples, n)
	r.reserveSlots(r.tailLive() + n)
}

// AddFact inserts the fact and reports whether it was newly added.
func (inst *Instance) AddFact(f Fact) bool {
	return inst.AddTuple(f.Rel, f.Args)
}

// AddAll inserts every fact of other into inst and returns the number of
// newly added facts. Stored tuples are immutable, so inst stores other's
// tuples without copying them.
func (inst *Instance) AddAll(other *Instance) int {
	n := 0
	for name, s := range other.rels {
		n += inst.addLive(name, s.r)
	}
	return n
}

// addLive adds the live tuples of r, which belongs to another instance,
// to the named relation and returns how many were new.
func (inst *Instance) addLive(name string, r *Relation) int {
	n := 0
	for i := 0; i < r.Len(); i++ {
		if r.Live(i) && inst.add(name, r.TupleAt(i), "AddAll", false) {
			n++
		}
	}
	return n
}

// RemoveLastTuple removes the most recently added tuple of the relation
// and returns it. It supports the LIFO undo discipline of backtracking
// solvers; removing anything but the last-added tuple is not supported.
// It panics when the relation is absent or empty.
func (inst *Instance) RemoveLastTuple(relName string) Tuple {
	inst.mutable("RemoveLastTuple")
	s, ok := inst.rels[relName]
	if !ok {
		panic(fmt.Sprintf("rel: RemoveLastTuple on absent relation %s", relName))
	}
	return inst.own(relName, s).popLast()
}

// Relation returns the extension of the relation, or nil if the instance
// has no facts for it. The result reflects the instance only until its
// next write, which may copy the relation (see Instance).
func (inst *Instance) Relation(name string) *Relation {
	return inst.rels[name].r
}

// Contains reports whether the fact is present.
func (inst *Instance) Contains(f Fact) bool {
	s, ok := inst.rels[f.Rel]
	return ok && s.r.Contains(f.Args)
}

// RelationNames returns the names of relations with at least one tuple,
// sorted.
func (inst *Instance) RelationNames() []string {
	names := make([]string, 0, len(inst.rels))
	for n, s := range inst.rels {
		if s.r.LiveLen() > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// NumFacts returns the total number of facts (live tuples).
func (inst *Instance) NumFacts() int {
	n := 0
	for _, s := range inst.rels {
		n += s.r.LiveLen()
	}
	return n
}

// IsEmpty reports whether the instance holds no facts.
func (inst *Instance) IsEmpty() bool { return inst.NumFacts() == 0 }

// TupleCounts returns the current tuple slot count of every relation,
// keyed by name. Relations grow append-only (AddTuple appends; only
// RemoveLastTuple and the MapValues rebuild disturb the order), so a
// snapshot of the counts splits each relation into a stable old prefix
// and a new suffix until the next non-append mutation — this is the
// watermark the semi-naive chase keeps per dependency (see hom.Delta).
// Tombstoned slots are counted: MergeValue keeps slot indexes stable
// precisely so these watermarks survive egd merges. Empty relations
// are included.
func (inst *Instance) TupleCounts() map[string]int {
	counts := make(map[string]int, len(inst.rels))
	for name, s := range inst.rels {
		counts[name] = s.r.Len()
	}
	return counts
}

// Facts returns all facts in deterministic order (relations sorted by
// name, tuples in insertion order). The tuples are owned by the instance
// and must not be mutated.
func (inst *Instance) Facts() []Fact {
	out := make([]Fact, 0, inst.NumFacts())
	for _, name := range inst.RelationNames() {
		r := inst.rels[name].r
		for i := 0; i < r.Len(); i++ {
			if r.Live(i) {
				out = append(out, Fact{Rel: name, Args: r.TupleAt(i)})
			}
		}
	}
	return out
}

// Clone returns a copy of the instance: writes to either copy never
// affect the other. The copies share every relation until its first
// write (see Instance), so Clone of an unfrozen instance is a write to
// it.
func (inst *Instance) Clone() *Instance {
	c := &Instance{rels: make(map[string]relSlot, len(inst.rels))}
	for name, s := range inst.rels {
		inst.lend(c, name, s)
	}
	return c
}

// Union returns a new instance holding the facts of both instances. It
// shares a's relations, and b's relations that a lacks, with the
// result (see Instance), so it counts as a write to both.
func Union(a, b *Instance) *Instance {
	u := a.Clone()
	for name, s := range b.rels {
		// Lending a relation with dead slots, or an empty one, would
		// keep slots or a relation that adding its live tuples drops.
		if _, ok := u.rels[name]; !ok && s.r.nDead == 0 && s.r.Len() > 0 {
			b.lend(u, name, s)
			continue
		}
		u.addLive(name, s.r)
	}
	return u
}

// ContainsAll reports whether every fact of sub is present in inst.
func (inst *Instance) ContainsAll(sub *Instance) bool {
	for _, f := range sub.Facts() {
		if !inst.Contains(f) {
			return false
		}
	}
	return true
}

// Equal reports whether the two instances hold exactly the same facts.
func (inst *Instance) Equal(other *Instance) bool {
	return inst.NumFacts() == other.NumFacts() && inst.ContainsAll(other)
}

// Restrict returns a new instance holding only the facts whose relations
// belong to the given schema. It shares those relations with the result
// (see Instance), so it counts as a write to inst.
func (inst *Instance) Restrict(s *Schema) *Instance {
	out := NewInstance()
	for name, slot := range inst.rels {
		if s.Has(name) {
			inst.lend(out, name, slot)
		}
	}
	return out
}

// ActiveDomain returns the set of values occurring in the instance.
func (inst *Instance) ActiveDomain() map[Value]struct{} {
	dom := make(map[Value]struct{})
	for _, s := range inst.rels {
		r := s.r
		for i := 0; i < r.Len(); i++ {
			if !r.Live(i) {
				continue
			}
			for _, v := range r.TupleAt(i) {
				dom[v] = struct{}{}
			}
		}
	}
	return dom
}

// Nulls returns the set of labeled nulls occurring in the instance.
func (inst *Instance) Nulls() map[Value]struct{} {
	nulls := make(map[Value]struct{})
	for _, s := range inst.rels {
		r := s.r
		for i := 0; i < r.Len(); i++ {
			if !r.Live(i) {
				continue
			}
			for _, v := range r.TupleAt(i) {
				if v.IsNull() {
					nulls[v] = struct{}{}
				}
			}
		}
	}
	return nulls
}

// HasNulls reports whether the instance contains any labeled null. A
// frozen instance scans once and answers later calls from memory.
func (inst *Instance) HasNulls() bool {
	if !inst.frozen {
		return inst.scanNulls()
	}
	if m := inst.nulls.Load(); m != nullsUnknown {
		return m == nullsSome
	}
	has := inst.scanNulls()
	memo := nullsNone
	if has {
		memo = nullsSome
	}
	inst.nulls.Store(memo)
	return has
}

func (inst *Instance) scanNulls() bool {
	for _, s := range inst.rels {
		r := s.r
		for i := 0; i < r.Len(); i++ {
			if !r.Live(i) {
				continue
			}
			for _, v := range r.TupleAt(i) {
				if v.IsNull() {
					return true
				}
			}
		}
	}
	return false
}

// MergeValue substitutes to for every occurrence of from, in place.
// It is the in-place counterpart of MapValues(map[Value]Value{from: to}):
// where MapValues rebuilds the whole instance (shuffling every tuple
// index), MergeValue rewrites only the tuples that carry from and
// tombstones rewrites that collide with an existing tuple (keeping the
// copy with the smaller index, matching MapValues' first-occurrence-wins
// dedup). Surviving tuples keep their indexes,
// so TupleCounts watermarks taken before the merge stay valid. Only
// relations that hold from are written (and, when shared, copied).
//
// The result maps each relation to the sorted indexes of live tuples
// whose content changed; relations without changes are absent. The
// chase logs these indexes, and each dependency's next search — a tgd's
// trigger collection or an egd's detection pass — hands those logged
// since its mark to hom.Conj.EnumerateDeltaSpec, so only bindings touching a
// merged class are re-enumerated.
func (inst *Instance) MergeValue(from, to Value) map[string][]int {
	inst.mutable("MergeValue")
	if from == to {
		return nil
	}
	var out map[string][]int
	for name, s := range inst.rels {
		if !s.r.holds(from) {
			continue
		}
		if ch := inst.own(name, s).mergeValue(from, to); len(ch) > 0 {
			if out == nil {
				out = make(map[string][]int)
			}
			out[name] = ch
		}
	}
	return out
}

// Compact returns inst unchanged when no tuple slot is tombstoned, and
// otherwise a fresh instance holding exactly the live tuples in their
// current order. Facts (and hence String) render identically either
// way; only the tuple indexes shift, so callers must not mix
// pre-compaction watermarks with the compacted instance.
func (inst *Instance) Compact() *Instance {
	dirty := false
	for _, s := range inst.rels {
		if s.r.nDead > 0 {
			dirty = true
			break
		}
	}
	if !dirty {
		return inst
	}
	out := NewInstance()
	for name, s := range inst.rels {
		r := s.r
		nr := newRelation(r.name, r.arity)
		for i := 0; i < r.Len(); i++ {
			if r.Live(i) {
				nr.addOwned(r.TupleAt(i))
			}
		}
		out.rels[name] = relSlot{r: nr, owned: true}
	}
	return out
}

// MapValues returns a new instance with every value v replaced by m(v).
// Values not in m are kept unchanged. This implements taking the
// homomorphic image h(K) of an instance.
func (inst *Instance) MapValues(m map[Value]Value) *Instance {
	out := NewInstance()
	for _, f := range inst.Facts() {
		t := f.Args.Clone()
		for i, v := range t {
			if w, ok := m[v]; ok {
				t[i] = w
			}
		}
		out.AddOwnedTuple(f.Rel, t)
	}
	return out
}

// ValidateAgainst checks that every relation of the instance is declared
// in the schema with a matching arity.
func (inst *Instance) ValidateAgainst(s *Schema) error {
	for name, slot := range inst.rels {
		r := slot.r
		if r.Len() == 0 {
			continue
		}
		ar, ok := s.Arity(name)
		if !ok {
			return fmt.Errorf("rel: relation %s not declared in schema", name)
		}
		if ar != r.arity {
			return fmt.Errorf("rel: relation %s has arity %d, schema declares %d", name, r.arity, ar)
		}
	}
	return nil
}

// String renders the instance as a sorted list of facts, one per line.
func (inst *Instance) String() string {
	facts := inst.Facts()
	lines := make([]string, len(facts))
	for i, f := range facts {
		lines[i] = f.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
