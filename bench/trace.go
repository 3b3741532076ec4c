package main

// The traced run. After each real round trip, the request is executed
// again through the layers' public functions in the daemon's handler
// order, timing one span per call. The spans are re-executions, not
// instrumentation inside pdxd, so the end-to-end run carries no tracing
// at all; http.unattributed_us is the round trip minus every span
// (transport, routing, admission, cache locks, logging, proxy waits).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"repro/internal/certain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/qplan"
	"repro/internal/server"
	"repro/internal/snap"
	"repro/pde"
	"repro/pde/client"
)

// spanNames are the timed layers, in handler order. Each is reported
// in µs per traced request, except snap.decode_us: decodes run only
// while a daemon restores its snapshots, so it is µs per snapshot.
// snap.encode_us and snap.save_us run on the daemon's write-behind
// goroutine, outside the request, so http.unattributed_us does not
// subtract them.
var spanNames = []string{
	"client.encode_us",
	"server.decode_us",
	"depparse.parse_us",
	"server.content_id_us",
	"server.registry_us",
	"cluster.owner_us",
	"core.chase_us",
	"hom.check_blocks_us",
	"qplan.compile_us",
	"qplan.eval_us",
	"certain.enumerate_us",
	"core.resume_us",
	"snap.encode_us",
	"snap.save_us",
	"snap.decode_us",
	"server.encode_us",
}

// perLayer names the per-layer metrics of a traced run's result line,
// as BENCHMARK.json lists them: the round trip and the spans every
// workload exercises, per-request counts, and /metrics deltas over the
// traced window. The other spans are printed, not reported, because
// they read exactly 0 on workloads that bypass their layer.
var perLayer = []struct{ name, unit string }{
	{"http.round_trip_us", "us"},
	{"client.encode_us", "us"},
	{"server.decode_us", "us"},
	{"depparse.parse_us", "us"},
	{"server.content_id_us", "us"},
	{"server.registry_us", "us"},
	{"hom.check_blocks_us", "us"},
	{"server.encode_us", "us"},
	{"http.unattributed_us", "us"},
	{"chase.steps", "count"},
	{"hom.blocks", "count"},
	{"certain.solutions_examined", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_evictions", "count"},
	{"server.cache_resumes", "count"},
	{"server.cache_fallbacks", "count"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.compiled_share", "ratio"},
	{"server.shed", "count"},
	{"snap.saves", "count"},
	{"snap.stored_mb", "MiB"},
	{"cluster.proxied_share", "ratio"},
	{"cluster.owner_computes", "count"},
}

// artifact is a tractable chase artifact the daemon caches for a
// source, as the tracer mirrors it.
type artifact struct {
	settingID string
	trace     *core.TractableTrace
}

type planKey struct {
	shard     int
	settingID string
	query     string
}

// tracer mirrors the daemon-side state a replay needs (cached
// artifacts, compiled plans, a snapshot store) and accumulates spans.
type tracer struct {
	d       *deployment
	ring    *cluster.Ring // nil for a single daemon
	arts    map[string]artifact
	plans   map[planKey]*qplan.Plan
	store   *snap.Store
	spans   map[string]time.Duration
	decodes int // snapshots decoded at restore
	counts  map[string]float64
	stored  int // bytes of mirrored snapshot saves
	ops     int
	rtt     time.Duration
}

func newTracer(w workload, d *deployment, dir string) (*tracer, error) {
	store, err := snap.Open(dir)
	if err != nil {
		return nil, err
	}
	t := &tracer{
		d:      d,
		arts:   make(map[string]artifact),
		plans:  make(map[planKey]*qplan.Plan),
		store:  store,
		spans:  make(map[string]time.Duration),
		counts: make(map[string]float64),
	}
	if len(d.urls) > 1 {
		if t.ring, err = cluster.New(d.urls[0], d.urls, 0); err != nil {
			return nil, err
		}
		for _, u := range d.urls {
			t.ring.SetAlive(u, true)
		}
	}
	// Mirror the artifacts setup left in the daemon's cache.
	switch w := w.(type) {
	case *warmRead:
		return t, t.restore(w.snapDir)
	case *clusterProxied:
		return t, t.chaseAll(w.settingID, w.pool)
	case *appendWrite:
		return t, t.chaseAll(w.settingID, w.bases)
	}
	return t, nil
}

// restore decodes a snapshot directory the way a warm restart does.
func (t *tracer) restore(dir string) error {
	store, err := snap.Open(dir)
	if err != nil {
		return err
	}
	keys, err := store.List()
	if err != nil {
		return err
	}
	for _, k := range keys {
		data, err := store.Load(k)
		if err != nil {
			return err
		}
		var e *snap.Entry
		t.time("snap.decode_us", func() { e, err = snap.Decode(data) })
		if err != nil {
			return err
		}
		t.decodes++
		t.arts[e.SourceID] = artifact{e.SettingID, e.Tractable}
	}
	return nil
}

// chaseAll computes the artifacts of registered sources, untimed.
func (t *tracer) chaseAll(settingID string, srcs []*lavSource) error {
	srv := t.d.srvs[0]
	c := srv.Registry().Get(settingID)
	for _, src := range srcs {
		si := srv.Instances().Get(src.id)
		if c == nil || si == nil {
			return errors.New("tracer: setting or source not registered")
		}
		tr, err := core.ChaseCanonicalTractable(c.Setting, si.Inst, pde.NewInstance(), core.TractableOptions{})
		if err != nil {
			return err
		}
		t.arts[si.ID] = artifact{settingID, tr}
	}
	return nil
}

func (t *tracer) time(name string, f func()) {
	start := time.Now()
	f()
	t.spans[name] += time.Since(start)
}

// contentID hashes canonical instance text the way the daemon keys its
// registry and cache.
func contentID(text string) string {
	sum := sha256.Sum256([]byte(text))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// replay re-executes one answered request.
func (t *tracer) replay(o *op, resp any, rtt time.Duration) error {
	t.ops++
	t.rtt += rtt
	switch o.kind {
	case opExists:
		return t.replayExists(o, resp.(client.SolveResponse))
	case opCertain:
		return t.replayCertain(o, resp.(client.CertainResponse))
	case opBatch:
		return t.replayBatch(o, resp.(client.CertainBatchResponse))
	case opAppend:
		return t.replayAppend(o, resp.(client.AppendResponse))
	default:
		t.time("server.encode_us", func() { _, _ = json.Marshal(map[string]string{"evicted": o.instID}) })
		delete(t.arts, o.instID)
		return nil
	}
}

// resolved is a solve request as a shard resolves it.
type resolved struct {
	c            *server.Compiled
	i, j         *pde.Instance
	srcID, tgtID string
	queries      []pde.UCQ
	texts        []string // the queries as sent
}

// solveFields returns the fields every solve request type carries.
func solveFields(req any) (settingID, src, srcID, tgt, tgtID string, queries []string) {
	switch r := req.(type) {
	case *client.SolveRequest:
		return r.SettingID, r.Source, r.SourceID, r.Target, r.TargetID, nil
	case *client.CertainRequest:
		return r.SettingID, r.Source, r.SourceID, r.Target, r.TargetID, []string{r.Query}
	case *client.CertainBatchRequest:
		return r.SettingID, r.Source, r.SourceID, r.Target, r.TargetID, r.Queries
	}
	panic(fmt.Sprintf("solveFields: %T is not a solve request", req))
}

// inline rewrites a solve request the way a forwarding shard does:
// both instances travel as text.
func inline(req any, src, tgt string) {
	switch r := req.(type) {
	case *client.SolveRequest:
		r.Source, r.SourceID, r.Target, r.TargetID = src, "", tgt, ""
	case *client.CertainRequest:
		r.Source, r.SourceID, r.Target, r.TargetID = src, "", tgt, ""
	case *client.CertainBatchRequest:
		r.Source, r.SourceID, r.Target, r.TargetID = src, "", tgt, ""
	}
}

// front mirrors what every solve handler does before computing: encode
// and decode the request, resolve it on the receiving shard, and, when
// clustered, look up the owner; a non-owner forwards the request with
// both instances inlined and the owner decodes and resolves it again.
// It returns the computing shard, its resolution, and whether the
// request was proxied.
func (t *tracer) front(o *op, req any) (int, resolved, bool, error) {
	fresh := func() any { return reflect.New(reflect.TypeOf(req).Elem()).Interface() }
	msg := fresh()
	in, err := t.hop(o.shard, req, msg)
	if err != nil || t.ring == nil {
		return o.shard, in, false, err
	}
	var owner string
	t.time("cluster.owner_us", func() { owner = t.ring.Owner(cluster.Key(in.c.ID, in.srcID, in.tgtID)) })
	if owner == t.d.urls[o.shard] {
		return o.shard, in, false, nil
	}
	shard := slices.Index(t.d.urls, owner)
	t.time("client.encode_us", func() { inline(msg, pde.FormatInstance(in.i), pde.FormatInstance(in.j)) })
	out, err := t.hop(shard, msg, fresh())
	if err == nil && out.srcID != in.srcID {
		err = fmt.Errorf("tracer: inlined source hashes to %s, registered as %s", out.srcID, in.srcID)
	}
	return shard, out, true, err
}

// hop sends req to a shard: encode, decode into msg, resolve there.
func (t *tracer) hop(shard int, req, msg any) (resolved, error) {
	var body []byte
	var err error
	t.time("client.encode_us", func() { body, err = json.Marshal(req) })
	if err == nil {
		t.time("server.decode_us", func() { err = json.Unmarshal(body, msg) })
	}
	if err != nil {
		return resolved{}, err
	}
	return t.resolve(t.d.srvs[shard], msg)
}

// resolve mirrors the daemon's solve preamble: setting lookup, each
// instance by ID or parsed and content-hashed, schema validation, and
// query parsing.
func (t *tracer) resolve(srv *server.Server, req any) (resolved, error) {
	settingID, src, srcID, tgt, tgtID, texts := solveFields(req)
	r := resolved{texts: texts}
	t.time("server.registry_us", func() { r.c = srv.Registry().Get(settingID) })
	if r.c == nil {
		return r, fmt.Errorf("tracer: setting %s not registered", settingID)
	}
	var err error
	if r.i, r.srcID, err = t.side(srv, src, srcID); err != nil {
		return r, err
	}
	if r.j, r.tgtID, err = t.side(srv, tgt, tgtID); err != nil {
		return r, err
	}
	t.time("server.registry_us", func() {
		if err = r.i.ValidateAgainst(r.c.Setting.Source); err == nil {
			err = r.j.ValidateAgainst(r.c.Setting.Target)
		}
	})
	for _, text := range texts {
		var qs []pde.UCQ
		t.time("depparse.parse_us", func() { qs, err = pde.ParseQueries(text) })
		if err == nil && len(qs) != 1 {
			err = fmt.Errorf("tracer: %d queries in %q", len(qs), text)
		}
		if err == nil {
			t.time("server.registry_us", func() { err = qs[0].Validate(r.c.Setting.Target) })
		}
		if err != nil {
			return r, err
		}
		r.queries = append(r.queries, qs[0])
	}
	return r, err
}

// side resolves one instance: by ID from the registry, or parsed inline
// text plus its content hash.
func (t *tracer) side(srv *server.Server, text, id string) (*pde.Instance, string, error) {
	if id != "" {
		var si *server.StoredInstance
		t.time("server.registry_us", func() { si = srv.Instances().Get(id) })
		if si == nil {
			return nil, "", fmt.Errorf("tracer: instance %s not registered", id)
		}
		return si.Inst, si.ID, nil
	}
	var inst *pde.Instance
	var err error
	t.time("depparse.parse_us", func() { inst, err = pde.ParseInstance(text) })
	if err != nil {
		return nil, "", err
	}
	t.time("server.content_id_us", func() { id = contentID(pde.FormatInstance(inst)) })
	return inst, id, nil
}

// back mirrors the response path: the computing shard encodes, and a
// proxying shard decodes the owner's response and encodes it again.
func (t *tracer) back(resp any, proxied bool) {
	var body []byte
	t.time("server.encode_us", func() { body, _ = json.Marshal(resp) }) // response types always marshal
	if proxied {
		msg := reflect.New(reflect.TypeOf(resp)).Interface()
		t.time("server.decode_us", func() { _ = json.Unmarshal(body, msg) })
		t.time("server.encode_us", func() { _, _ = json.Marshal(msg) })
	}
}

func (t *tracer) replayExists(o *op, resp client.SolveResponse) error {
	_, in, proxied, err := t.front(o, &o.solve)
	if err != nil {
		return err
	}
	if in.c.Strategy != string(pde.StrategyTractable) {
		return fmt.Errorf("tracer: setting %s is not tractable", in.c.ID)
	}
	a, ok := t.arts[in.srcID]
	if !ok || !resp.CacheHit {
		// A miss: the daemon chased. Cold sources are not kept, as the
		// daemon's bounded cache does not keep them for long either.
		t.time("core.chase_us", func() {
			a.trace, err = core.ChaseCanonicalTractable(in.c.Setting, in.i, in.j, core.TractableOptions{})
		})
		if err != nil {
			return err
		}
		t.counts["chase.steps"] += float64(a.trace.StepsST + a.trace.StepsTS)
	}
	t.time("hom.check_blocks_us", func() {
		_, _, err = core.ExistsSolutionTractableFrom(in.i, a.trace, core.TractableOptions{})
	})
	t.counts["hom.blocks"] += float64(a.trace.Blocks)
	t.back(resp, proxied)
	return err
}

// plan mirrors the daemon's plan cache: compile on first sight.
func (t *tracer) plan(shard int, in resolved, k int) (*qplan.Plan, error) {
	key := planKey{shard, in.c.ID, in.texts[k]}
	if p, ok := t.plans[key]; ok {
		return p, nil
	}
	var p *qplan.Plan
	var err error
	t.time("qplan.compile_us", func() { p, err = in.c.Plan.CompileQuery(in.queries[k]) })
	if err == nil {
		t.plans[key] = p
	}
	return p, err
}

func (t *tracer) replayCertain(o *op, resp client.CertainResponse) error {
	shard, in, proxied, err := t.front(o, &o.certain)
	if err != nil {
		return err
	}
	if in.c.Plan != nil {
		p, err := t.plan(shard, in, 0)
		if err != nil {
			return err
		}
		t.time("qplan.eval_us", func() { _, err = p.Eval(in.i, in.j, qplan.EvalOptions{}) })
		t.back(resp, proxied)
		return err
	}
	// The enumeration path chases the generic artifact; cold-inline's
	// sources are always misses.
	var ct *core.CanonicalTarget
	t.time("core.chase_us", func() { ct, err = core.ChaseCanonicalTarget(in.c.Setting, in.i, in.j, core.SolveOptions{}) })
	if err != nil {
		return err
	}
	t.counts["chase.steps"] += float64(ct.STResult.Steps)
	if ct.TResult != nil {
		t.counts["chase.steps"] += float64(ct.TResult.Steps)
	}
	var res certain.Result
	q := in.queries[0]
	t.time("certain.enumerate_us", func() {
		opts := certain.Options{Canonical: ct}
		if q[0].IsBoolean() {
			res, err = certain.Boolean(in.c.Setting, in.i, in.j, q, opts)
		} else {
			res, err = certain.Answers(in.c.Setting, in.i, in.j, q, opts)
		}
	})
	t.counts["certain.solutions_examined"] += float64(res.SolutionsExamined)
	t.back(resp, proxied)
	return err
}

func (t *tracer) replayBatch(o *op, resp client.CertainBatchResponse) error {
	shard, in, proxied, err := t.front(o, &o.batch)
	if err != nil {
		return err
	}
	if in.c.Plan == nil {
		return fmt.Errorf("tracer: batch against non-compilable setting %s", in.c.ID)
	}
	var exists bool
	t.time("qplan.eval_us", func() { exists, err = in.c.Plan.SolutionExists(in.i, in.j, qplan.EvalOptions{}) })
	for k := range in.queries {
		if err != nil {
			return err
		}
		var p *qplan.Plan
		if p, err = t.plan(shard, in, k); err == nil {
			t.time("qplan.eval_us", func() { _, err = p.EvalGiven(exists, in.i, in.j, qplan.EvalOptions{}) })
		}
	}
	t.back(resp, proxied)
	return err
}

func (t *tracer) replayAppend(o *op, resp client.AppendResponse) error {
	srv := t.d.srvs[o.shard]
	var body []byte
	var err error
	t.time("client.encode_us", func() { body, err = json.Marshal(client.AppendRequest{Facts: o.facts}) })
	var req client.AppendRequest
	if err == nil {
		t.time("server.decode_us", func() { err = json.Unmarshal(body, &req) })
	}
	if err != nil {
		return err
	}
	var base *server.StoredInstance
	t.time("server.registry_us", func() { base = srv.Instances().Get(o.instID) })
	var batch *pde.Instance
	t.time("depparse.parse_us", func() { batch, err = pde.ParseInstance(req.Facts) })
	if base == nil || err != nil {
		return fmt.Errorf("tracer: append to %s: %v", o.instID, err)
	}
	// The child is registered already, so Append finds it and changes
	// nothing; it still clones, merges and hashes as the handler did.
	var child *server.StoredInstance
	var delta *pde.Instance
	t.time("server.registry_us", func() { child, delta, _ = srv.Instances().Append(base, batch) })
	if child.ID != resp.ID {
		return fmt.Errorf("tracer: append produced %s, the daemon %s", child.ID, resp.ID)
	}
	if a, ok := t.arts[base.ID]; ok {
		var c *server.Compiled
		t.time("server.registry_us", func() { c = srv.Registry().Get(a.settingID) })
		var next *core.TractableTrace
		t.time("core.resume_us", func() {
			next, _, _, err = core.ResumeCanonicalTractable(c.Setting, a.trace, delta, core.TractableOptions{})
		})
		if err != nil {
			return err
		}
		t.counts["chase.steps"] += float64(next.StepsST + next.StepsTS)
		t.arts[child.ID] = artifact{a.settingID, next}
		if err := t.save(a.settingID, child, next); err != nil {
			return err
		}
	}
	t.back(resp, false)
	return nil
}

// save mirrors the write-behind snapshot of a migrated entry.
func (t *tracer) save(settingID string, src *server.StoredInstance, tr *core.TractableTrace) error {
	empty := pde.FormatInstance(pde.NewInstance())
	e := &snap.Entry{
		SettingID:  settingID,
		SourceID:   src.ID,
		TargetID:   contentID(empty),
		Kind:       snap.KindTractable,
		Tractable:  tr,
		TargetText: empty,
	}
	var data []byte
	var err error
	t.time("snap.encode_us", func() {
		e.SourceText = pde.FormatInstance(src.Inst)
		data, err = snap.Encode(e)
	})
	if err != nil {
		return err
	}
	t.time("snap.save_us", func() { err = t.store.Save(snap.Key(e.SettingID, e.SourceID, e.TargetID, e.Kind), data) })
	t.stored += len(data)
	return err
}

// layers returns every per-layer value of the traced window: the spans,
// the counts, and the /metrics deltas.
func (t *tracer) layers(d counters, solves int) map[string]float64 {
	n := float64(max(t.ops, 1))
	us := func(x time.Duration) float64 { return float64(x) / float64(time.Microsecond) }
	out := map[string]float64{"http.round_trip_us": us(t.rtt) / n}
	named := t.rtt
	for _, name := range spanNames {
		if name == "snap.decode_us" {
			out[name] = us(t.spans[name]) / float64(max(t.decodes, 1))
			continue
		}
		out[name] = us(t.spans[name]) / n
		if name != "snap.encode_us" && name != "snap.save_us" {
			named -= t.spans[name]
		}
	}
	out["http.unattributed_us"] = us(named) / n
	for _, name := range []string{"chase.steps", "hom.blocks", "certain.solutions_examined"} {
		out[name] = t.counts[name] / n
	}
	planLookups := d.family("pdxd_plan_cache_hits_total") + d.family("pdxd_plan_cache_misses_total")
	out["server.cache_hit_ratio"] = ratio(d.family("pdxd_chase_cache_hits_total"), d.family("pdxd_chase_cache_misses_total"))
	out["server.cache_evictions"] = d.family("pdxd_chase_cache_evictions_total")
	out["server.cache_resumes"] = d.family("pdxd_chase_cache_resumes_total")
	out["server.cache_fallbacks"] = d.family("pdxd_chase_cache_fallbacks_total")
	out["server.plan_cache_hit_ratio"] = ratio(d.family("pdxd_plan_cache_hits_total"), d.family("pdxd_plan_cache_misses_total"))
	out["server.compiled_share"] = ratio(planLookups, d.family("pdxd_certain_compiled_fallbacks_total"))
	out["server.shed"] = d.family("pdxd_shed_total")
	out["snap.saves"] = d.family("pdxd_snapshot_saves_total")
	out["snap.stored_mb"] = float64(t.stored) / (1 << 20)
	out["cluster.proxied_share"] = d.family("pdxd_cluster_proxied_total") / float64(max(solves, 1))
	out["cluster.owner_computes"] = d.family("pdxd_cluster_owner_computes_total")
	return out
}

// traceWorkload runs one workload's traced replay: one client, the
// first traceOps requests of its first window or as many as fit in
// dur. It prints every per-layer value and returns the result.
func traceWorkload(ctx context.Context, name string, w workload, r *run, dur time.Duration, out io.Writer) (summary, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	d, err := w.setup(ctx, r, hc)
	if err != nil {
		return summary{}, fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	t, err := newTracer(w, d, filepath.Join(r.dir, name+"-trace-snapshots"))
	if err != nil {
		return summary{}, err
	}
	before, err := scrapeAll(ctx, hc, d.urls)
	if err != nil {
		return summary{}, err
	}
	cls := d.clients(hc)
	next := w.stream(r, 0, 0).next
	var win window
	solves := 0
	deadline := time.Now().Add(dur)
	for n := 0; n < r.sc.traceOps && time.Now().Before(deadline); n++ {
		o := next()
		start := time.Now()
		resp, sendErr := o.send(ctx, cls)
		rtt := time.Since(start)
		var checkErr error
		if sendErr == nil {
			checkErr = o.check(resp)
		}
		win.record(float64(rtt)/float64(time.Millisecond), sendErr, checkErr)
		if sendErr != nil || checkErr != nil {
			continue
		}
		if o.kind <= opBatch {
			solves++
		}
		if err := t.replay(o, resp, rtt); err != nil {
			return summary{}, fmt.Errorf("replaying request %d: %w", n, err)
		}
	}
	after, err := scrapeAll(ctx, hc, d.urls)
	if err != nil {
		return summary{}, err
	}
	vals := t.layers(delta(after, before), solves)
	fmt.Fprintf(out, "%-16s %-28s %12d requests traced\n", name, "trace", t.ops)
	for _, n := range append(append([]string{"http.round_trip_us"}, spanNames...), "http.unattributed_us") {
		fmt.Fprintf(out, "%-16s %-28s %12.2f us\n", name, n, vals[n])
	}
	for _, m := range perLayer {
		if m.unit != "us" {
			fmt.Fprintf(out, "%-16s %-28s %12.4f %s\n", name, m.name, vals[m.name], m.unit)
		}
	}
	s := summarize([]window{win})
	s.metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		s.metrics[m.name] = value(vals[m.name], m.unit)
	}
	return s, nil
}
