package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/rel"
	"repro/pde"
)

// planCacheMaxEntries bounds the plan cache. Plans are small (a few
// disjuncts of a few atoms), so a count bound suffices.
const planCacheMaxEntries = 4096

// planKey builds a plan-cache key: the sha256 of the setting ID, a NUL
// and the query's shape text (qplan.SettingPlan.AppendShape), so
// formatting differences never split entries, queries that differ only
// in constants other than the setting's Σst head constants share one
// entry, and a cached plan keeps 32 key bytes. The hashed bytes are built in a stack
// buffer, which a point query's text fits, so the key allocates
// nothing.
func planKey(sp *pde.SettingPlan, settingID string, q pde.UCQ) [sha256.Size]byte {
	var buf [256]byte
	text := append(append(buf[:0], settingID...), 0)
	return sha256.Sum256(sp.AppendShape(text, q))
}

// planResult is a plan-cache value: the compiled plan, or the error of
// a query the setting plan refuses (plan-too-large). A refusal is a
// value like any other, so an over-budget query is not recompiled on
// every request.
type planResult struct {
	plan *pde.Plan
	err  error
}

// entryMeta is a cache entry's identity: its key and what the key was
// built from. A chase-cache key is snap.Key(settingID, src.ID, tgt.ID,
// kind), the name of the entry's snapshot file and of its peer-transfer
// URL, and kind is snap.KindTractable or snap.KindGeneric: certain
// answers enumerate image solutions, so they need the generic artifact
// even for a tractable setting. Plan entries set only key and
// settingID.
type entryMeta struct {
	key       string
	settingID string
	kind      string
	// src and tgt are the resolved source and target instances the key
	// was built from. Their canonical texts are what the snapshot store
	// saves and a warm start validates against. Both are immutable.
	src, tgt *StoredInstance
}

// cacheEntry is one cached value. In the chase cache it is a
// *core.TractableTrace or *core.CanonicalTarget depending on kind; in
// the plan cache a planResult. It is immutable once done (the
// From-style solvers never mutate it), so any number of solves may
// share it concurrently. A tractable entry also memoizes the pair's
// SOL(P) verdict (decide): it starts unknown, including on entries that
// append migration, snapshot install or cluster handoff put, and is set
// by the first successful decision.
type cacheEntry struct {
	entryMeta
	value   any
	bytes   int64
	done    bool          // computation succeeded; value and bytes are valid
	ready   chan struct{} // pending only: closed, then dropped, when the leader finishes
	verdict atomic.Uint32 // SOL(P) memo: one of the verdict* states below
}

// States of cacheEntry.verdict.
const (
	verdictUnknown uint32 = iota
	verdictNone
	verdictExists
)

// decide returns the entry's memoized SOL(P) verdict, running compute
// on first use. Only a successful verdict is stored: an error (deadline,
// cancellation) leaves the memo unknown for the next request. Callers
// racing on a fresh entry may each compute; they store the same value.
func (e *cacheEntry) decide(compute func() (bool, error)) (bool, error) {
	if v := e.verdict.Load(); v != verdictUnknown {
		return v == verdictExists, nil
	}
	ok, err := compute()
	if err != nil {
		return false, err
	}
	v := verdictNone
	if ok {
		v = verdictExists
	}
	e.verdict.Store(v)
	return ok, nil
}

// cache is the LRU, single-flight store the server keeps two instances
// of: the chase cache holds chased artifacts keyed by (setting, source
// instance, target instance, kind), and the plan cache holds compiled
// query plans keyed by (setting, query). Entries are inserted pending,
// computed once by the first requester, and evicted least-recently-used
// when the byte or entry budget is exceeded, or explicitly when their
// setting or an underlying instance is evicted. Failed computations
// (budget exhausted, deadline, cancellation) are never retained: the
// pending entry is removed and the next requester becomes the new
// leader. Each instance counts its own hits, misses and evictions.
type cache struct {
	maxBytes   int64
	maxEntries int
	disabled   bool

	hits      atomic.Int64 // lookups served by a completed or joined entry
	misses    atomic.Int64 // lookups that computed the value
	evictions atomic.Int64 // entries dropped (LRU or explicit)

	mu    sync.Mutex // never held across a compute; guards the three fields below
	items map[string]*list.Element
	lru   *list.List // front = most recently used; holds *cacheEntry
	bytes int64
}

func newCache(maxBytes int64, maxEntries int) *cache {
	return &cache{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		disabled:   maxEntries < 0,
		items:      make(map[string]*list.Element),
		lru:        list.New(),
	}
}

// getOrCompute returns the cache entry for meta.key, computing its
// value via compute exactly once per concurrent burst. The boolean
// reports a hit (the entry existed, or another request's computation was
// joined); on a miss the entry is the one this call installed. On
// compute failure the error is returned and nothing is cached. With the
// cache disabled the entry is detached: it carries the value only.
func (c *cache) getOrCompute(ctx context.Context, meta entryMeta, compute func() (any, int64, error)) (*cacheEntry, bool, error) {
	if c.disabled {
		v, _, err := compute()
		if err != nil {
			return nil, false, err
		}
		return &cacheEntry{value: v}, false, nil
	}
	for {
		c.mu.Lock()
		if el, ok := c.items[meta.key]; ok {
			e := el.Value.(*cacheEntry)
			if e.done {
				// Completed entries always hold a value: a failed leader
				// removes its entry before closing ready.
				c.lru.MoveToFront(el)
				c.mu.Unlock()
				c.hits.Add(1)
				return e, true, nil
			}
			ready := e.ready
			c.mu.Unlock()
			select {
			case <-ready:
				// The leader finished (or failed and removed the entry);
				// loop to observe the outcome under the lock.
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			continue
		}
		e := &cacheEntry{entryMeta: meta, ready: make(chan struct{})}
		c.items[meta.key] = c.lru.PushFront(e)
		c.mu.Unlock()
		c.misses.Add(1)

		v, bytes, err := compute()
		c.mu.Lock()
		if err != nil {
			// Unlinked while still pending, so it uncharges nothing;
			// waiters loop back and find the key free.
			c.removeLocked(meta.key)
		} else {
			e.value, e.bytes, e.done = v, bytes, true
			c.bytes += bytes
			c.evictOverBudgetLocked(meta.key)
		}
		// Waiters hold their own reference to ready; a done entry needs
		// none, so a long-lived entry does not keep the channel alive.
		close(e.ready)
		e.ready = nil
		c.mu.Unlock()
		if err != nil {
			return nil, false, err
		}
		return e, false, nil
	}
}

// hit returns the completed entry for key and counts a hit, or returns
// nil, counting nothing, when there is none (absent, still pending, or
// the cache disabled); getOrCompute then settles the lookup. It reads
// the key as bytes, so a hit allocates nothing.
func (c *cache) hit(key []byte) *cacheEntry {
	if c.disabled {
		return nil
	}
	c.mu.Lock()
	el, ok := c.items[string(key)]
	if !ok || !el.Value.(*cacheEntry).done {
		c.mu.Unlock()
		return nil
	}
	c.lru.MoveToFront(el)
	c.mu.Unlock()
	c.hits.Add(1)
	return el.Value.(*cacheEntry)
}

// peek returns the completed entry for key without waiting or
// computing, or nil when there is none (absent, still pending, or the
// cache disabled). It counts neither a hit nor a miss; a found entry
// moves to the LRU front, since it is serving a request.
func (c *cache) peek(key string) *cacheEntry {
	if c.disabled {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	e := el.Value.(*cacheEntry)
	if !e.done {
		return nil
	}
	c.lru.MoveToFront(el)
	return e
}

// put inserts a completed artifact directly (append migration, snapshot
// install) and returns the entry it installed. An existing entry for the
// key — even a pending one — wins and put returns nil: migration is
// best-effort and must not clobber an in-flight leader.
func (c *cache) put(meta entryMeta, value any, bytes int64) *cacheEntry {
	if c.disabled {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[meta.key]; ok {
		return nil
	}
	e := &cacheEntry{entryMeta: meta, value: value, bytes: bytes, done: true}
	c.items[meta.key] = c.lru.PushFront(e)
	c.bytes += bytes
	c.evictOverBudgetLocked(meta.key)
	return e
}

// entries snapshots the completed entries, most recently used first
// (append migration walks this without holding the lock across chases).
func (c *cache) entries() []*cacheEntry {
	if c.disabled {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*cacheEntry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.done {
			out = append(out, e)
		}
	}
	return out
}

// evictMatching removes every completed entry the predicate selects and
// returns them. Pending entries are skipped: their leader owns them
// until done.
func (c *cache) evictMatching(match func(*cacheEntry) bool) []*cacheEntry {
	if c.disabled {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var gone []*cacheEntry
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.done && match(e) {
			c.removeLocked(e.key)
			c.evictions.Add(1)
			gone = append(gone, e)
		}
		el = next
	}
	return gone
}

// stats returns the current entry count and byte total.
func (c *cache) stats() (entries int, bytes int64) {
	if c.disabled {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.bytes
}

// evictOverBudgetLocked drops least-recently-used completed entries
// until the cache fits its budgets again. The just-inserted key is
// spared so a single oversized artifact still serves its own request
// burst; it goes next time something else lands.
func (c *cache) evictOverBudgetLocked(justInserted string) {
	over := func() bool {
		if c.maxEntries > 0 && c.lru.Len() > c.maxEntries {
			return true
		}
		return c.maxBytes > 0 && c.bytes > c.maxBytes
	}
	for el := c.lru.Back(); el != nil && over(); {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.done && e.key != justInserted {
			c.removeLocked(e.key)
			c.evictions.Add(1)
		}
		el = prev
	}
}

// removeLocked unlinks an entry from both indexes and the byte total.
func (c *cache) removeLocked(key string) {
	el, ok := c.items[key]
	if !ok {
		return
	}
	if e := el.Value.(*cacheEntry); e.done {
		c.bytes -= e.bytes
	}
	delete(c.items, key)
	c.lru.Remove(el)
}

// instanceBytes approximates the heap footprint of instances for the
// cache's byte accounting. An artifact's instances share relations
// copy-on-write (see rel.Instance), so it sums relationBytes over the
// distinct relations they hold: a relation reached from several
// instances counts once. nil instances count zero.
func instanceBytes(insts ...*pde.Instance) int64 {
	seen := make(map[*rel.Relation]bool)
	var n int64
	for _, inst := range insts {
		if inst == nil {
			continue
		}
		for _, name := range inst.RelationNames() {
			if r := inst.Relation(name); !seen[r] {
				seen[r] = true
				n += relationBytes(r)
			}
		}
	}
	return n
}

// relationBytes approximates a relation's heap footprint: a per-fact
// overhead for the tuple header, the tuple slot and the indexes, plus
// one Value slot per argument. The 80-byte overhead is calibrated: a
// LAV(800) trace (3,200 distinct live facts) then accounts 388 KB
// against a measured 0.385 MB heap delta. Precision is not the point —
// bounding growth is. A constant's text is interned once
// process-wide (see rel.Const), so an occurrence costs its 16-byte
// slot, not its text again. Only live tuples count: egd merges
// tombstone tuples in place rather than deleting them, and an
// accounting that charged tombstoned slots would inflate
// pdxd_chase_cache_bytes after every keyed-egd chase. The charge
// depends only on the live count and the arity, so accounting an
// entry allocates nothing.
func relationBytes(r *rel.Relation) int64 {
	perFact := 80 + len(r.Name()) + r.Arity()*int(unsafe.Sizeof(rel.Value{}))
	return int64(r.LiveLen()) * int64(perFact)
}
