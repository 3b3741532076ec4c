package server

// The cached solve paths. Solves resolve their instances to content
// IDs and fetch (or compute, once) the chased artifact for the
// (setting, I, J, kind) key. A tractable entry also memoizes the SOL(P)
// verdict, so warm exists-solution and compiled certain requests skip
// the block checks and the Σts probes. Appends migrate affected
// artifacts to the appended instance by resuming the chases with just
// the new facts (core.Resume*), so warm traffic keeps skipping the
// chase even as instances grow.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/qplan"
	"repro/internal/snap"
	"repro/pde"
	"repro/pde/client"
)

// solvePair is a solve's resolved instances plus their cache IDs. It is
// the pde.Artifacts of the request: the shared dispatch reads chased
// state and memoized verdicts through the chase cache and compiled
// plans through the plan cache.
type solvePair struct {
	srv      *Server
	c        *Compiled
	src, tgt *StoredInstance
	// hit reports that the last artifact fetched came from the cache.
	hit bool
}

// config is the execution config of one request's solver work.
func (s *Server) config(ctx context.Context) par.Config {
	return par.Config{Ctx: ctx}
}

// options configures the shared dispatch for one request: the compiled
// certain-answer path is always on, and a positive maxNodes may lower
// the server-wide generic-solver budget but never raise it.
func (s *Server) options(maxNodes int64) pde.Options {
	o := pde.Options{Compiled: true, MaxNodes: s.cfg.MaxNodes}
	if maxNodes > 0 && (o.MaxNodes == 0 || maxNodes < o.MaxNodes) {
		o.MaxNodes = maxNodes
	}
	return o
}

// artifactBytes approximates a cached artifact's heap footprint: the
// distinct relations of its instances, a fixed overhead, and a trace's
// blocks.
func artifactBytes(v any) int64 {
	insts := make([]*pde.Instance, 0, 6)
	var results [2]*chase.Result
	n := int64(256)
	switch a := v.(type) {
	case *core.TractableTrace:
		insts = append(insts, a.JCan, a.ICan)
		results = [2]*chase.Result{a.STResult, a.TSResult}
		n += int64(a.Blocks) * 64
	case *core.CanonicalTarget:
		insts = append(insts, a.JCan)
		results = [2]*chase.Result{a.STResult, a.TResult}
	}
	for _, r := range results {
		if r != nil {
			insts = append(insts, r.Start, r.Instance)
		}
	}
	return n + instanceBytes(insts...)
}

// Tractable returns the cached (or freshly chased) Figure 3 trace for
// the pair.
func (p *solvePair) Tractable(ctx context.Context) (*core.TractableTrace, error) {
	e, err := p.tractable(ctx)
	if err != nil {
		return nil, err
	}
	return e.value.(*core.TractableTrace), nil
}

// tractable fetches the pair's tractable cache entry, chasing it once
// on a miss.
func (p *solvePair) tractable(ctx context.Context) (*cacheEntry, error) {
	return p.entry(ctx, snap.KindTractable, func() (any, int64, error) {
		tr, err := core.ChaseCanonicalTractable(p.c.Setting, p.src.Inst, p.tgt.Inst, core.TractableOptions{Config: p.srv.config(ctx)})
		if err != nil {
			return nil, 0, err
		}
		return tr, artifactBytes(tr), nil
	})
}

// Verdict returns the pair's SOL(P) verdict memoized on its tractable
// cache entry; the entry's first ask runs the block checks over its
// trace. With cachedOnly set it only peeks: no chase, no entry created,
// no hit or miss counted, and known == false when the pair has no
// completed tractable entry.
func (p *solvePair) Verdict(ctx context.Context, cachedOnly bool) (bool, bool, error) {
	var e *cacheEntry
	if cachedOnly {
		if e = p.srv.cache.peek(snap.Key(p.c.ID, p.src.ID, p.tgt.ID, snap.KindTractable)); e == nil {
			return false, false, nil
		}
	} else {
		var err error
		if e, err = p.tractable(ctx); err != nil {
			return false, false, err
		}
	}
	ok, err := e.decide(func() (bool, error) {
		ok, _, err := core.ExistsSolutionTractableFrom(p.src.Inst, e.value.(*core.TractableTrace), core.TractableOptions{Config: p.srv.config(ctx)})
		return ok, err
	})
	return ok, err == nil, err
}

// Canonical returns the cached (or freshly chased) canonical target for
// the pair.
func (p *solvePair) Canonical(ctx context.Context) (*core.CanonicalTarget, error) {
	e, err := p.entry(ctx, snap.KindGeneric, func() (any, int64, error) {
		ct, err := core.ChaseCanonicalTarget(p.c.Setting, p.src.Inst, p.tgt.Inst, core.SolveOptions{Config: p.srv.config(ctx)})
		if err != nil {
			return nil, 0, err
		}
		return ct, artifactBytes(ct), nil
	})
	if err != nil {
		return nil, err
	}
	return e.value.(*core.CanonicalTarget), nil
}

// entry fetches the pair's cache entry of the given kind, computing it
// once on a miss (single-flight), and records whether it was a hit. A
// freshly computed entry goes to the write-behind snapshot queue.
func (p *solvePair) entry(ctx context.Context, kind string, compute func() (any, int64, error)) (*cacheEntry, error) {
	meta := entryMeta{key: snap.Key(p.c.ID, p.src.ID, p.tgt.ID, kind), settingID: p.c.ID, kind: kind, src: p.src, tgt: p.tgt}
	e, hit, err := p.srv.cache.getOrCompute(ctx, meta, compute)
	if err != nil {
		return nil, err
	}
	p.hit = hit
	if !hit {
		p.srv.countOwnerCompute()
		p.srv.saveAsync(e)
	}
	return e, nil
}

// Plan returns the query's plan from the plan cache, compiling its
// shape once on a miss and binding it to the query's constants, or the
// setting's fallback reason when it is outside the compilable fragment.
// A hit allocates only the bound plan.
func (p *solvePair) Plan(ctx context.Context, q pde.UCQ) (*pde.Plan, error) {
	sp := p.c.Plan
	if sp == nil {
		return nil, &qplan.FallbackError{Reason: p.c.PlanFallback}
	}
	key := planKey(sp, p.c.ID, q)
	e := p.srv.plans.hit(key[:])
	if e == nil {
		meta := entryMeta{key: string(key[:]), settingID: p.c.ID}
		var err error
		e, _, err = p.srv.plans.getOrCompute(ctx, meta, func() (any, int64, error) {
			plan, err := sp.CompileQuery(q)
			return planResult{plan, err}, 0, nil
		})
		if err != nil {
			return nil, err
		}
	}
	r := e.value.(planResult)
	if r.err != nil {
		return nil, r.err
	}
	return r.plan.Bind(q), nil
}

// certain runs the shared certain-answers dispatch over the pair and
// counts every query the compiled path declined, by reason.
func (s *Server) certain(ctx context.Context, p *solvePair, queries []pde.UCQ) ([]pde.CertainResult, error) {
	res, err := pde.CertainFrom(ctx, p.c.Setting, p.src.Inst, p.tgt.Inst, queries, p, s.options(0))
	for _, r := range res {
		if r.FallbackReason != "" {
			s.met.compiledFallback(r.FallbackReason).Add(1)
		}
	}
	return res, err
}

// fitsSetting reports whether every fact of the batch belongs to the
// setting's source or target schema — the precondition for migrating a
// cache entry of that setting across the append.
func fitsSetting(batch *pde.Instance, st *pde.Setting) bool {
	for _, f := range batch.Facts() {
		if ar, ok := st.Source.Arity(f.Rel); ok && ar == len(f.Args) {
			continue
		}
		if ar, ok := st.Target.Arity(f.Rel); ok && ar == len(f.Args) {
			continue
		}
		return false
	}
	return true
}

// arityConflict reports the first relation of batch whose arity
// differs from the same relation's in base: the union of the two would
// not be an instance.
func arityConflict(base, batch *pde.Instance) error {
	for _, name := range batch.RelationNames() {
		if r := base.Relation(name); r != nil && r.Arity() != batch.Relation(name).Arity() {
			return fmt.Errorf("relation %s has arity %d in the instance but %d in the batch", name, r.Arity(), batch.Relation(name).Arity())
		}
	}
	return nil
}

func (s *Server) handleInstanceRegister(w http.ResponseWriter, r *http.Request) {
	var req client.RegisterInstanceRequest
	if !decode(w, r, &req) {
		return
	}
	si, created, err := s.inst.Register(req.Instance)
	if err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "%v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "instance registered",
		slog.String("id", si.ID), slog.Int("facts", si.Facts), slog.Bool("created", created))
	writeJSON(w, status, client.RegisterInstanceResponse{ID: si.ID, Facts: si.Facts, Created: created})
}

func (s *Server) handleInstanceList(w http.ResponseWriter, r *http.Request) {
	all := s.inst.List()
	out := client.ListInstancesResponse{Instances: make([]client.InstanceSummary, 0, len(all))}
	for _, si := range all {
		out.Instances = append(out.Instances, client.InstanceSummary{ID: si.ID, Facts: si.Facts, Parent: si.Parent})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInstanceEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.inst.Evict(id) {
		writeErr(w, http.StatusNotFound, client.CodeNotFound, "instance %q is not registered", id)
		return
	}
	s.cache.evictMatching(func(e *cacheEntry) bool { return e.src.ID == id || e.tgt.ID == id })
	s.dropSnapshots(id)
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

func (s *Server) handleInstanceAppend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req client.AppendRequest
	if !decode(w, r, &req) {
		return
	}
	base := s.inst.Get(id)
	if base == nil {
		writeErr(w, http.StatusNotFound, client.CodeNotFound, "instance %q is not registered", id)
		return
	}
	batch, err := pde.ParseInstance(req.Facts)
	if err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing facts: %v", err)
		return
	}
	if err := arityConflict(base.Inst, batch); err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "%v", err)
		return
	}
	// Migration resumes chases, so it runs under admission control and
	// the request deadline like any solve.
	ctx, release := s.admit(w, r, req.DeadlineMillis)
	if release == nil {
		return
	}
	defer release()

	child, delta, created := s.inst.Append(base, batch)
	out := client.AppendResponse{
		ID:      child.ID,
		Parent:  base.ID,
		Added:   delta.NumFacts(),
		Facts:   child.Facts,
		Created: created,
	}
	if delta.NumFacts() > 0 {
		out.Migrated, out.Resumed, out.Fallbacks = s.migrateCache(ctx, base.ID, child, delta)
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "instance appended",
		slog.String("base", base.ID), slog.String("id", child.ID),
		slog.Int("added", out.Added), slog.Int("migrated", out.Migrated),
		slog.Int("resumed", out.Resumed), slog.Int("fallbacks", out.Fallbacks))
	writeJSON(w, http.StatusOK, out)
}

// migrateCache carries every cache entry referencing the base instance
// over to the appended instance by resuming its chases with the delta.
// Entries whose setting is gone or whose schema the delta does not fit
// are skipped (the new instance simply starts cold for them); resume
// errors (deadline, budget) likewise skip the entry.
func (s *Server) migrateCache(ctx context.Context, baseID string, child *StoredInstance, delta *pde.Instance) (migrated, resumes, fallbacks int) {
	for _, e := range s.cache.entries() {
		if e.src.ID != baseID && e.tgt.ID != baseID {
			continue
		}
		c := s.reg.Get(e.settingID)
		if c == nil || !fitsSetting(delta, c.Setting) {
			continue
		}
		src, tgt := e.src, e.tgt
		if src.ID == baseID {
			src = child
		}
		if tgt.ID == baseID {
			tgt = child
		}
		meta := entryMeta{
			key:       snap.Key(e.settingID, src.ID, tgt.ID, e.kind),
			settingID: e.settingID,
			kind:      e.kind,
			src:       src,
			tgt:       tgt,
		}
		var next any
		var resumed bool
		var reason string
		var err error
		switch e.kind {
		case snap.KindTractable:
			next, resumed, reason, err = core.ResumeCanonicalTractable(c.Setting, e.value.(*core.TractableTrace), delta, core.TractableOptions{Config: s.config(ctx)})
		default: // snap.KindGeneric
			next, resumed, reason, err = core.ResumeCanonicalTarget(c.Setting, e.value.(*core.CanonicalTarget), delta, core.SolveOptions{Config: s.config(ctx)})
		}
		if err != nil {
			s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "cache migration failed",
				slog.String("setting", e.settingID), slog.String("err", err.Error()))
			continue
		}
		installed := s.cache.put(meta, next, artifactBytes(next))
		migrated++
		s.saveAsync(installed)
		if resumed {
			resumes++
			s.met.cacheResumes.Add(1)
		} else {
			fallbacks++
			s.met.fallback(reason).Add(1)
		}
	}
	return migrated, resumes, fallbacks
}

// wireAnswers converts certain-answer tuples to their wire form.
func wireAnswers(ts []pde.Tuple) [][]string {
	var out [][]string
	for _, t := range ts {
		row := make([]string, len(t))
		for k, v := range t {
			row[k] = v.String()
		}
		out = append(out, row)
	}
	return out
}
