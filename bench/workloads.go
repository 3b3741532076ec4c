package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/rel"
	"repro/internal/server"
	"repro/internal/snap"
	gen "repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

// scale sizes a run. The benchmark runs at fullScale; tests shrink it.
type scale struct {
	pool     int // LAV sources served by warm-read and cluster-proxied
	lavN     int // persons per pooled or append-base LAV source
	coldLAV  int // persons per cold-inline LAV source
	coldFull int // vertices per cold-inline FullST source
	batch    int // point queries per batch request
	windows  int // measurement windows per workload, each with its own setup
	clients  int // closed-loop clients
	maxOps   int // ops per client per window; 0 bounds windows by time only
	traceOps int // ops a traced run replays
}

var fullScale = scale{
	pool:     16,
	lavN:     1600,
	coldLAV:  800,
	coldFull: 200,
	batch:    64,
	windows:  5,
	// Two clients, but never more than there are CPUs, so the load
	// generator never outnumbers the cores it shares with the daemon.
	clients:  min(2, runtime.NumCPU()),
	traceOps: 300,
}

// run is the state one benchmark invocation shares across workloads.
type run struct {
	seed int64
	sc   scale
	dir  string // scratch directory for snapshot stores
}

// workload is one traffic mix.
type workload interface {
	// prepare makes the run's inputs from the seed, once per run,
	// untimed.
	prepare(ctx context.Context, r *run) error
	// setup boots a deployment ready to serve the mix: boot → first
	// request servable, timed as setup_s.
	setup(ctx context.Context, r *run, hc *http.Client) (*deployment, error)
	// stream returns client c's requests in one window.
	stream(r *run, c, window int) stream
}

var workloadNames = []string{"warm-read", "cold-inline", "append-write", "cluster-proxied"}

func newWorkload(name string) workload {
	switch name {
	case "warm-read":
		return &warmRead{}
	case "cold-inline":
		return &coldInline{}
	case "append-write":
		return &appendWrite{}
	case "cluster-proxied":
		return &clusterProxied{}
	}
	return nil
}

// Generator roles, so every role of a run draws from its own stream.
const (
	tagPool = iota
	tagBase
	tagWarm
	tagCold
	tagAppend
	tagCluster
)

// rngFor derives the generator of one role of a run from the seed.
func rngFor(seed int64, tags ...int) *rand.Rand {
	h := fnv.New64a()
	_ = binary.Write(h, binary.LittleEndian, seed) // hash writes never fail
	for _, t := range tags {
		_ = binary.Write(h, binary.LittleEndian, int64(t))
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

type opKind int

const (
	opExists opKind = iota
	opCertain
	opBatch
	opAppend
	opDelete
)

// op is one request and the check its response must pass.
type op struct {
	kind    opKind
	shard   int // index of the receiving shard
	solve   client.SolveRequest
	certain client.CertainRequest
	batch   client.CertainBatchRequest
	instID  string // append and delete target
	facts   string // append batch
	// check verifies the response against ground truth; an append also
	// moves its chain onto the returned instance.
	check func(resp any) error
}

func (o *op) send(ctx context.Context, cls []*client.Client) (any, error) {
	c := cls[o.shard]
	switch o.kind {
	case opExists:
		return c.ExistsSolution(ctx, o.solve)
	case opCertain:
		return c.CertainAnswers(ctx, o.certain)
	case opBatch:
		return c.CertainBatch(ctx, o.batch)
	case opAppend:
		return c.AppendInstance(ctx, o.instID, client.AppendRequest{Facts: o.facts})
	default:
		return nil, c.EvictInstance(ctx, o.instID)
	}
}

// stream yields one client's requests in order. After a window,
// settle yields the requests that bring the client's server-side state
// back to rest, then nil; a nil settle means there is nothing to undo.
type stream struct {
	next, settle func() *op
}

// mix deals op kinds in shuffled blocks: every len(pattern) consecutive
// ops hold exactly the pattern, so a window's mix does not drift with
// the seed and allocs/op stays comparable across seeds.
type mix struct {
	pattern, block []opKind
	rng            *rand.Rand
	i              int
}

func newMix(rng *rand.Rand, pattern ...opKind) *mix {
	return &mix{pattern: pattern, block: slices.Clone(pattern), rng: rng}
}

func (m *mix) next() opKind {
	k := m.i % len(m.pattern)
	if k == 0 {
		copy(m.block, m.pattern)
		m.rng.Shuffle(len(m.block), func(a, b int) { m.block[a], m.block[b] = m.block[b], m.block[a] })
	}
	m.i++
	return m.block[k]
}

// lavSource is a gen.LAVInstance source and its ground truth.
type lavSource struct {
	id      string // content ID the daemon assigned
	text    string // canonical fact text
	truth   *lavTruth
	persons int
}

// lavPool generates n sources of the given size; when unsolvableEvery
// is positive, every unsolvableEvery-th source is unsolvable.
func lavPool(rng *rand.Rand, n, persons, unsolvableEvery int) []*lavSource {
	out := make([]*lavSource, n)
	for k := range out {
		solvable := unsolvableEvery <= 0 || k%unsolvableEvery != unsolvableEvery-1
		i, _ := gen.LAVInstance(persons, solvable, rng)
		out[k] = &lavSource{text: pde.FormatInstance(i), truth: newLAVTruth(i), persons: persons}
	}
	return out
}

// register stores the source on one daemon and records its ID.
func (s *lavSource) register(ctx context.Context, c *client.Client) error {
	resp, err := c.RegisterInstance(ctx, s.text)
	if err != nil {
		return fmt.Errorf("registering source: %w", err)
	}
	if s.id != "" && resp.ID != s.id {
		return fmt.Errorf("source registered as %s on %s, %s elsewhere", resp.ID, c.Base(), s.id)
	}
	s.id = resp.ID
	return nil
}

// warm asks one daemon for the source's verdict, which chases and
// caches its artifact there.
func (s *lavSource) warm(ctx context.Context, c *client.Client, settingID string) error {
	resp, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: settingID, SourceID: s.id})
	if err == nil {
		err = checkExists(resp, s.truth.solvable())
	}
	if err != nil {
		return fmt.Errorf("warming source on %s: %w", c.Base(), err)
	}
	return nil
}

func (s *lavSource) person(rng *rand.Rand) string {
	return fmt.Sprintf("p%d", rng.Intn(s.persons))
}

func existsOp(shard int, settingID, sourceID string, solvable bool) *op {
	return &op{
		kind:  opExists,
		shard: shard,
		solve: client.SolveRequest{SettingID: settingID, SourceID: sourceID},
		check: func(resp any) error { return checkExists(resp.(client.SolveResponse), solvable) },
	}
}

func pointQuery(person string) string { return fmt.Sprintf("q(g) :- Rec('%s', g, u)", person) }

func pointOp(shard int, settingID, sourceID, person string, solvable bool, want [][]string) *op {
	return &op{
		kind:    opCertain,
		shard:   shard,
		certain: client.CertainRequest{SettingID: settingID, SourceID: sourceID, Query: pointQuery(person)},
		check: func(resp any) error {
			r := resp.(client.CertainResponse)
			return checkCertain(r.SolutionExists, r.Answers, solvable, want)
		},
	}
}

func batchOp(shard int, settingID string, src *lavSource, persons []string) *op {
	qs := make([]string, len(persons))
	for k, p := range persons {
		qs[k] = pointQuery(p)
	}
	return &op{
		kind:  opBatch,
		shard: shard,
		batch: client.CertainBatchRequest{SettingID: settingID, SourceID: src.id, Queries: qs},
		check: func(resp any) error {
			r := resp.(client.CertainBatchResponse)
			if len(r.Results) != len(persons) {
				return fmt.Errorf("certain-answers batch: %d results for %d queries", len(r.Results), len(persons))
			}
			for k, res := range r.Results {
				if err := checkCertain(res.SolutionExists, res.Answers, src.truth.solvable(), src.truth.answers(persons[k])); err != nil {
					return fmt.Errorf("query %d: %w", k, err)
				}
			}
			return nil
		},
	}
}

// warmRead is steady-state serving where every request is a cache hit:
// pdxd restarts from a snapshot directory holding the chased artifacts
// of the whole pool, and requests address sources by ID.
type warmRead struct {
	setting   string
	settingID string
	pool      []*lavSource
	snapDir   string
}

func (w *warmRead) prepare(ctx context.Context, r *run) error {
	w.setting = pde.FormatSetting(gen.LAVSetting())
	w.pool = lavPool(rngFor(r.seed, tagPool), r.sc.pool, r.sc.lavN, 4)
	w.snapDir = filepath.Join(r.dir, "warm-read-snapshots")
	store, err := snap.Open(w.snapDir)
	if err != nil {
		return err
	}
	d, err := boot(1, func(int, []string) server.Config { return server.Config{Snapshots: store} }, nil)
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	err = w.fill(ctx, d.clients(hc)[0])
	d.close() // flushes the write-behind snapshot queue
	if err != nil {
		return fmt.Errorf("filling the snapshot directory: %w", err)
	}
	if keys, err := store.List(); err != nil || len(keys) != len(w.pool) {
		return fmt.Errorf("snapshot directory holds %d snapshots, want %d (%v)", len(keys), len(w.pool), err)
	}
	return nil
}

// fill registers the pool and chases every source, so the daemon's
// write-behind queue snapshots each artifact.
func (w *warmRead) fill(ctx context.Context, c *client.Client) error {
	reg, err := c.Register(ctx, w.setting)
	if err != nil {
		return fmt.Errorf("registering setting: %w", err)
	}
	w.settingID = reg.ID
	for _, src := range w.pool {
		if err := src.register(ctx, c); err != nil {
			return err
		}
		if err := src.warm(ctx, c, w.settingID); err != nil {
			return err
		}
	}
	return nil
}

func (w *warmRead) setup(ctx context.Context, r *run, hc *http.Client) (*deployment, error) {
	store, err := snap.Open(w.snapDir)
	if err != nil {
		return nil, err
	}
	return boot(1, func(int, []string) server.Config { return server.Config{Snapshots: store} },
		func(s *server.Server) error {
			if _, _, err := s.Registry().Register(w.setting); err != nil {
				return fmt.Errorf("preloading setting: %w", err)
			}
			if loaded, failed := s.LoadSnapshots(); loaded != len(w.pool) || failed != 0 {
				return fmt.Errorf("warm restart loaded %d snapshots and rejected %d, want %d and 0", loaded, failed, len(w.pool))
			}
			return nil
		})
}

// stream: 60% exists-solution, 30% certain point query, 10% batch of
// point queries, every source addressed by ID, sources in a shuffled
// round-robin so each is asked equally often.
func (w *warmRead) stream(r *run, c, window int) stream {
	rng := rngFor(r.seed, tagWarm, c, window)
	m := newMix(rng, opExists, opExists, opExists, opExists, opExists, opExists, opCertain, opCertain, opCertain, opBatch)
	perm := rng.Perm(len(w.pool))
	k := 0
	return stream{next: func() *op {
		src := w.pool[perm[k%len(perm)]]
		k++
		switch m.next() {
		case opExists:
			return existsOp(0, w.settingID, src.id, src.truth.solvable())
		case opCertain:
			p := src.person(rng)
			return pointOp(0, w.settingID, src.id, p, src.truth.solvable(), src.truth.answers(p))
		default:
			persons := make([]string, r.sc.batch)
			for i := range persons {
				persons[i] = src.person(rng)
			}
			return batchOp(0, w.settingID, src, persons)
		}
	}}
}

// coldInline inlines facts the daemon has never seen in every request,
// so parsing, content hashing, the chase and block decomposition do the
// work and the chase cache only misses.
type coldInline struct {
	lavSetting, fullSetting string
	lavID, fullID           string
}

// coldCacheEntries bounds the chase cache of cold-inline's daemon. Every
// exists-solution adds an entry of about 3 MiB (which the cache's byte
// budget undercounts), so the bound is reached early in each window:
// LRU eviction runs throughout, the run stays small, and the live heap
// does not depend on how many requests a window completed.
const coldCacheEntries = 16

// fullQuery is cold-inline's certain-answer query. FullSTSetting's Σst
// is full, so no Σts variable sits at a marked position and the
// compiled-plan path answers it, join body and all.
const fullQuery = "q(x) :- H(x,y)"

func (w *coldInline) prepare(context.Context, *run) error {
	w.lavSetting = pde.FormatSetting(gen.LAVSetting())
	w.fullSetting = pde.FormatSetting(gen.FullSTSetting())
	return nil
}

func (w *coldInline) setup(ctx context.Context, r *run, hc *http.Client) (d *deployment, err error) {
	d, err = boot(1, func(int, []string) server.Config { return server.Config{CacheMaxEntries: coldCacheEntries} }, nil)
	if err != nil {
		return nil, err
	}
	c := d.clients(hc)[0]
	for _, s := range []struct {
		text string
		id   *string
	}{{w.lavSetting, &w.lavID}, {w.fullSetting, &w.fullID}} {
		reg, err := c.Register(ctx, s.text)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("registering setting: %w", err)
		}
		*s.id = reg.ID
	}
	return d, nil
}

// stream: 75% exists-solution on a fresh LAV source, 25% certain
// answers on a fresh FullST source; one in five of each is generated
// unsolvable.
func (w *coldInline) stream(r *run, c, window int) stream {
	rng := rngFor(r.seed, tagCold, c, window)
	m := newMix(rng, opExists, opExists, opExists, opCertain)
	var lavs, fulls int
	return stream{next: func() *op {
		if m.next() == opExists {
			lavs++
			i, _ := gen.LAVInstance(r.sc.coldLAV, lavs%5 != 0, rng)
			o := existsOp(0, w.lavID, "", newLAVTruth(i).solvable())
			o.solve.Source = pde.FormatInstance(i)
			return o
		}
		fulls++
		i, _ := gen.FullSTInstance(r.sc.coldFull, fulls%5 != 0, rng)
		t := newFullTruth(i)
		return &op{
			kind:    opCertain,
			certain: client.CertainRequest{SettingID: w.fullID, Source: pde.FormatInstance(i), Query: fullQuery},
			check: func(resp any) error {
				r := resp.(client.CertainResponse)
				return checkCertain(r.SolutionExists, r.Answers, t.solvable, t.sources)
			},
		}
	}}
}

// appendWrite runs writes beside reads: each client grows a chain of
// appended instances off its own registered base on a daemon with a
// snapshot directory, so chase.Resume, instance append and evict, and
// the write-behind snapshot saves run.
type appendWrite struct {
	setting   string
	settingID string
	bases     []*lavSource // one per client
}

const (
	chainAppends  = 8  // appends before a chain is deleted and restarted
	appendPersons = 16 // fresh persons per append
)

func (w *appendWrite) prepare(ctx context.Context, r *run) error {
	w.setting = pde.FormatSetting(gen.LAVSetting())
	w.bases = lavPool(rngFor(r.seed, tagBase), r.sc.clients, r.sc.lavN, 0)
	return nil
}

func (w *appendWrite) setup(ctx context.Context, r *run, hc *http.Client) (d *deployment, err error) {
	dir, err := os.MkdirTemp(r.dir, "append-write-snapshots-")
	if err != nil {
		return nil, err
	}
	store, err := snap.Open(dir)
	if err != nil {
		return nil, err
	}
	d, err = boot(1, func(int, []string) server.Config { return server.Config{Snapshots: store} }, nil)
	if err != nil {
		return nil, err
	}
	d.scratch = dir
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	c := d.clients(hc)[0]
	reg, err := c.Register(ctx, w.setting)
	if err != nil {
		return nil, fmt.Errorf("registering setting: %w", err)
	}
	w.settingID = reg.ID
	for _, b := range w.bases {
		if err := b.register(ctx, c); err != nil {
			return nil, err
		}
		if err := b.warm(ctx, c, w.settingID); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (w *appendWrite) stream(r *run, c, window int) stream {
	ch := &chain{w: w, c: c, rng: rngFor(r.seed, tagAppend, c, window), base: w.bases[c], groups: r.sc.lavN / 10}
	ch.reset()
	return stream{next: ch.next, settle: ch.settle}
}

// chain is one append-write client's instance chain. Each step appends
// appendPersons fresh persons, asks exists-solution of the new instance
// (a cache entry the append migrated), and asks a certain point query
// about an appended person. The last append of a chain leaves one
// person without its Member, which flips the verdict; the chain's
// instances are then deleted and it restarts from the base.
type chain struct {
	w       *appendWrite
	c       int
	rng     *rand.Rand
	base    *lavSource
	groups  int
	cur     string    // instance the next request addresses
	extra   *lavTruth // truth of the appended facts alone
	ids     []string  // instances the chain created, deleted at its end
	step    int       // requests issued in the current chain, deletes excluded
	fresh   int       // fresh persons created so far
	persons []string  // persons of the latest append
}

func (ch *chain) reset() {
	ch.cur, ch.step = ch.base.id, 0
	ch.extra = newLAVTruth(rel.NewInstance())
}

// solvable holds because appended persons are fresh: their Person and
// Member pairs cannot complete or break a pair of the (solvable) base.
func (ch *chain) solvable() bool { return ch.base.truth.solvable() && ch.extra.solvable() }

func (ch *chain) next() *op {
	if ch.step == 3*chainAppends {
		if o := ch.settle(); o != nil {
			return o
		}
		ch.reset()
	}
	s := ch.step
	ch.step++
	switch s % 3 {
	case 0:
		return ch.appendOp(s/3 == chainAppends-1)
	case 1:
		return existsOp(0, ch.w.settingID, ch.cur, ch.solvable())
	default:
		p := ch.persons[ch.rng.Intn(len(ch.persons))]
		return pointOp(0, ch.w.settingID, ch.cur, p, ch.solvable(), ch.extra.answers(p))
	}
}

// settle deletes the instances of the unfinished chain.
func (ch *chain) settle() *op {
	n := len(ch.ids)
	if n == 0 {
		return nil
	}
	id := ch.ids[n-1]
	ch.ids = ch.ids[:n-1]
	return &op{kind: opDelete, instID: id, check: func(any) error { return nil }}
}

func (ch *chain) appendOp(flip bool) *op {
	batch := rel.NewInstance()
	ch.persons = ch.persons[:0]
	for k := 0; k < appendPersons; k++ {
		p := rel.Const(fmt.Sprintf("a%d_%d", ch.c, ch.fresh))
		ch.fresh++
		g := rel.Const(fmt.Sprintf("g%d", ch.rng.Intn(ch.groups)))
		batch.Add("Person", p, g)
		if !flip || k < appendPersons-1 {
			batch.Add("Member", p, g)
		}
		ch.persons = append(ch.persons, p.String())
	}
	parent := ch.cur
	return &op{
		kind:   opAppend,
		instID: parent,
		facts:  pde.FormatInstance(batch),
		check: func(resp any) error {
			r := resp.(client.AppendResponse)
			if r.Parent != parent || r.Added != batch.NumFacts() {
				return fmt.Errorf("append: parent %s added %d, want parent %s added %d", r.Parent, r.Added, parent, batch.NumFacts())
			}
			ch.cur = r.ID
			ch.ids = append(ch.ids, r.ID)
			ch.extra.add(batch)
			return nil
		},
	}
}

// clusterShards is cluster-proxied's fleet size.
const clusterShards = 3

// clusterProxied serves warm-read's pool from a 3-shard cluster: every
// shard has every source registered, each source's artifact is warm on
// its owner, and requests rotate across shards, so two in three are
// proxied to the owner with the source inlined.
type clusterProxied struct {
	setting   string
	settingID string
	pool      []*lavSource
}

func (w *clusterProxied) prepare(ctx context.Context, r *run) error {
	w.setting = pde.FormatSetting(gen.LAVSetting())
	w.pool = lavPool(rngFor(r.seed, tagPool), r.sc.pool, r.sc.lavN, 4)
	return nil
}

func (w *clusterProxied) setup(ctx context.Context, r *run, hc *http.Client) (d *deployment, err error) {
	d, err = boot(clusterShards, func(i int, urls []string) server.Config {
		return server.Config{Cluster: &server.ClusterConfig{Self: urls[i], Peers: urls, ProbeInterval: 100 * time.Millisecond}}
	}, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if err := d.waitRing(ctx, hc); err != nil {
		return nil, err
	}
	cls := d.clients(hc)
	for _, c := range cls {
		reg, err := c.Register(ctx, w.setting)
		if err != nil {
			return nil, fmt.Errorf("registering setting: %w", err)
		}
		w.settingID = reg.ID
		for _, src := range w.pool {
			if err := src.register(ctx, c); err != nil {
				return nil, err
			}
		}
	}
	for _, src := range w.pool {
		st, err := cls[0].ClusterStatus(ctx, w.settingID, src.id, "")
		if err != nil {
			return nil, fmt.Errorf("resolving owner: %w", err)
		}
		owner := slices.Index(d.urls, st.Owner)
		if owner < 0 {
			return nil, fmt.Errorf("owner %q is not a shard", st.Owner)
		}
		if err := src.warm(ctx, cls[owner], w.settingID); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// stream: two in three exists-solution, one in three certain point
// query. Client c sends its k-th request to shard (k+c) mod 3 and takes
// sources in a shuffled round-robin, so every source reaches every
// shard equally often and exactly two in three requests are proxied.
func (w *clusterProxied) stream(r *run, c, window int) stream {
	rng := rngFor(r.seed, tagCluster, c, window)
	m := newMix(rng, opExists, opExists, opCertain)
	perm := rng.Perm(len(w.pool))
	k := 0
	return stream{next: func() *op {
		src := w.pool[perm[k%len(perm)]]
		shard := (k + c) % clusterShards
		k++
		if m.next() == opExists {
			return existsOp(shard, w.settingID, src.id, src.truth.solvable())
		}
		p := src.person(rng)
		return pointOp(shard, w.settingID, src.id, p, src.truth.solvable(), src.truth.answers(p))
	}}
}
