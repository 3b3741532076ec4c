package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snap"
	"repro/pde"
	"repro/pde/client"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Logger receives one structured record per request; nil discards.
	Logger *slog.Logger
	// MaxInFlight bounds concurrently executing solves (admission
	// control); 0 means GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds solves waiting for an in-flight slot; beyond it
	// requests are shed with 429 immediately. 0 means 2×MaxInFlight;
	// negative means no queue (shed as soon as all slots are busy).
	MaxQueue int
	// DefaultDeadline applies to solves that don't send deadline_ms;
	// 0 means 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines; 0 means 5m.
	MaxDeadline time.Duration
	// MaxNodes bounds the generic solver's search nodes per request; 0
	// means unbounded. A request's max_nodes may lower the bound but
	// never raise it.
	MaxNodes int64
	// CacheMaxBytes bounds the approximate bytes held by the
	// chased-result cache; 0 means 256 MiB, negative means no byte
	// bound.
	CacheMaxBytes int64
	// CacheMaxEntries bounds the number of cached chased artifacts;
	// 0 means 1024, negative disables the cache entirely.
	CacheMaxEntries int
	// Snapshots, when non-nil, persists completed cache entries to disk
	// (write-behind) and enables warm starts (LoadSnapshots) and peer
	// warm transfer (WarmFrom, the /v1/cache endpoints). nil disables
	// persistence.
	Snapshots *snap.Store
	// Cluster, when non-nil, shards solve traffic across a fleet of
	// daemons over a consistent-hash ring (see cluster.go). nil serves
	// single-node.
	Cluster *ClusterConfig
}

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxInFlight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 256 << 20
	}
	if c.CacheMaxEntries == 0 {
		c.CacheMaxEntries = 1024
	}
	return c
}

// Server is the pdxd HTTP server: a compiled-setting registry plus the
// /v1 JSON API. Create with New, mount Handler on an http.Server.
type Server struct {
	cfg      Config
	reg      *Registry
	inst     *InstanceRegistry
	cache    *cache // chased artifacts
	plans    *cache // compiled query plans (planResult values)
	met      *metrics
	sem      chan struct{} // admission slots, cap MaxInFlight
	mux      *http.ServeMux
	draining atomic.Bool
	cluster  *clusterState // nil without cfg.Cluster

	// Write-behind snapshot machinery (nil/idle without cfg.Snapshots).
	snapMu   sync.Mutex // guards the queue, snapKeys and snapClosed
	snapCond *sync.Cond // on snapMu: signals the worker a job or Close
	snapJobs []snapJob  // queued saves and removals, oldest first
	// snapKeys maps every snapshot key stored or queued for saving to
	// the source and target instance IDs it names, so evicting an
	// instance finds its files whether or not their entries are still
	// cached.
	snapKeys   map[string][2]string
	snapDone   chan struct{}
	snapClosed bool
	closeOnce  sync.Once
}

// New builds a Server with empty registries and an empty chase cache.
// It panics on an invalid cluster config (empty self or peer URL) — a
// deployment error callers should validate before constructing the
// server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:  cfg.withDefaults(),
		reg:  NewRegistry(),
		inst: NewInstanceRegistry(),
		met:  newMetrics(),
	}
	s.cache = newCache(s.cfg.CacheMaxBytes, s.cfg.CacheMaxEntries)
	s.plans = newCache(0, planCacheMaxEntries)
	s.sem = make(chan struct{}, s.cfg.MaxInFlight)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/settings", s.route("settings-register", s.handleRegister))
	s.mux.HandleFunc("GET /v1/settings", s.route("settings-list", s.handleList))
	s.mux.HandleFunc("DELETE /v1/settings/{id}", s.route("settings-evict", s.handleEvict))
	s.mux.HandleFunc("POST /v1/instances", s.route("instances-register", s.handleInstanceRegister))
	s.mux.HandleFunc("GET /v1/instances", s.route("instances-list", s.handleInstanceList))
	s.mux.HandleFunc("DELETE /v1/instances/{id}", s.route("instances-evict", s.handleInstanceEvict))
	s.mux.HandleFunc("POST /v1/instances/{id}/append", s.route("instances-append", s.handleInstanceAppend))
	s.mux.HandleFunc("POST /v1/exists-solution", s.route("exists-solution", solveHandler(s, &existsRoute)))
	s.mux.HandleFunc("POST /v1/certain-answers", s.route("certain-answers", solveHandler(s, &certainRoute)))
	s.mux.HandleFunc("POST /v1/certain-answers/batch", s.route("certain-answers-batch", solveHandler(s, &certainBatchRoute)))
	s.mux.HandleFunc("POST /v1/classify", s.route("classify", s.handleClassify))
	s.mux.HandleFunc("POST /v1/vet", s.route("vet", s.handleVet))
	s.mux.HandleFunc("GET /v1/cache/keys", s.route("cache-keys", s.handleCacheKeys))
	s.mux.HandleFunc("GET /v1/cache/entries/{key}", s.route("cache-entry", s.handleCacheEntry))
	s.mux.HandleFunc("PUT /v1/cache/entries/{key}", s.route("cache-push", s.handleCachePush))
	s.mux.HandleFunc("GET /v1/cluster", s.route("cluster-status", s.handleClusterStatus))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	if s.cfg.Snapshots != nil {
		s.snapCond = sync.NewCond(&s.snapMu)
		s.snapKeys = make(map[string][2]string)
		s.snapDone = make(chan struct{})
		go s.snapWorker()
	}
	if s.cfg.Cluster != nil {
		st, err := newClusterState(*s.cfg.Cluster)
		if err != nil {
			panic("server: invalid cluster config: " + err.Error())
		}
		s.cluster = st
		go s.clusterMonitor()
	}
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the compiled-setting registry (for preloading).
func (s *Server) Registry() *Registry { return s.reg }

// Instances exposes the instance registry (for preloading and tests).
func (s *Server) Instances() *InstanceRegistry { return s.inst }

// InFlight returns the number of solves currently executing.
func (s *Server) InFlight() int { return int(s.met.inFlight.Load()) }

// StartDrain makes admission reject new solves with 503 while in-flight
// ones finish. Call before http.Server.Shutdown so long solves stop
// being admitted the moment the drain begins.
func (s *Server) StartDrain() { s.draining.Store(true) }

// statusWriter captures the status code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// route wraps a handler with request logging and metrics.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		d := time.Since(start)
		s.met.observe(name, sw.status, d)
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("route", name),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Float64("duration_ms", float64(d)/float64(time.Millisecond)),
			slog.String("remote", r.RemoteAddr),
		)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client gone; nothing to do
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]*client.APIError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// decode reads a JSON body with a size cap.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "decoding request body: %v", err)
		return false
	}
	return true
}

// admit installs the request's solve deadline and acquires an in-flight
// slot under it, queueing up to MaxQueue waiters. It returns the deadline
// context and a release function that frees the slot and the context, or
// writes the shed/timeout response and returns a nil release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, deadlineMillis int64) (context.Context, func()) {
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(deadlineMillis))
	if !s.acquire(ctx, w) {
		cancel()
		return nil, nil
	}
	s.met.inFlight.Add(1)
	return ctx, func() {
		s.met.inFlight.Add(-1)
		<-s.sem
		cancel()
	}
}

// acquire takes an admission slot or writes why it could not.
func (s *Server) acquire(ctx context.Context, w http.ResponseWriter) bool {
	if s.draining.Load() {
		s.met.shed.Add(1)
		writeErr(w, http.StatusServiceUnavailable, client.CodeShuttingDown, "daemon is draining")
		return false
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.met.queueDepth.Add(1) > int64(s.cfg.MaxQueue) {
		s.met.queueDepth.Add(-1)
		s.met.shed.Add(1)
		writeErr(w, http.StatusTooManyRequests, client.CodeOverloaded,
			"admission queue full (%d in flight, %d queued); retry later", s.cfg.MaxInFlight, s.cfg.MaxQueue)
		return false
	}
	select {
	case s.sem <- struct{}{}:
		s.met.queueDepth.Add(-1)
		return true
	case <-ctx.Done():
		s.met.queueDepth.Add(-1)
		s.met.shed.Add(1)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			writeErr(w, http.StatusGatewayTimeout, client.CodeDeadlineExceeded, "deadline expired while queued for admission")
		} else {
			writeErr(w, http.StatusServiceUnavailable, client.CodeCanceled, "request canceled while queued for admission")
		}
		return false
	}
}

// deadline computes the per-request solve budget.
func (s *Server) deadline(requestedMillis int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if requestedMillis > 0 {
		d = time.Duration(requestedMillis) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// solveError maps a solve failure onto an HTTP status and error code.
func solveError(err error) (int, string) {
	switch {
	case errors.Is(err, pde.ErrCanceled) && errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, client.CodeDeadlineExceeded
	case errors.Is(err, pde.ErrCanceled):
		return http.StatusServiceUnavailable, client.CodeCanceled
	case errors.Is(err, pde.ErrSearchBudget), errors.Is(err, pde.ErrChaseBudget):
		return http.StatusUnprocessableEntity, client.CodeUnprocessable
	default:
		return http.StatusBadRequest, client.CodeBadRequest
	}
}

// resolveInstance resolves one side of a solve request: inline fact
// text XOR a registered instance ID. Inline instances are canonicalized
// and hashed so they share the chase cache with registered ones, and
// frozen like them: a cache entry keeps the request's instances, which
// concurrent requests on the same entry clone, and the canonical text
// the snapshot writer saves. A side the request leaves out is the
// shared empty instance.
func (s *Server) resolveInstance(w http.ResponseWriter, side, inline, byID string) (*StoredInstance, bool) {
	switch {
	case inline != "" && byID != "":
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "set either %s or %s_id, not both", side, side)
		return nil, false
	case byID != "":
		si := s.inst.Get(byID)
		if si == nil {
			// The message names the instance first: a forwarding
			// shard tells it from a missing setting by that
			// (missingInstance) and registers the instance here.
			writeErr(w, http.StatusNotFound, client.CodeNotFound, "instance %q is not registered", byID)
			return nil, false
		}
		return si, true
	case inline == "":
		return emptyInstance, true
	default:
		inst, err := pde.ParseInstance(inline)
		if err != nil {
			writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing %s instance: %v", side, err)
			return nil, false
		}
		return freezeInstance(inst, ""), true
	}
}

// solveInput resolves the shared preamble of the solve endpoints:
// setting lookup, instance resolution, and schema validation.
func (s *Server) solveInput(w http.ResponseWriter, f pairFields) (*solvePair, bool) {
	c := s.reg.Get(*f.settingID)
	if c == nil {
		writeErr(w, http.StatusNotFound, client.CodeNotFound, "setting %q is not registered", *f.settingID)
		return nil, false
	}
	src, ok := s.resolveInstance(w, "source", *f.source, *f.sourceID)
	if !ok {
		return nil, false
	}
	tgt, ok := s.resolveInstance(w, "target", *f.target, *f.targetID)
	if !ok {
		return nil, false
	}
	if err := src.Inst.ValidateAgainst(c.Setting.Source); err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "source instance: %v", err)
		return nil, false
	}
	if err := tgt.Inst.ValidateAgainst(c.Setting.Target); err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "target instance: %v", err)
		return nil, false
	}
	return &solvePair{srv: s, c: c, src: src, tgt: tgt}, true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req client.RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	c, created, err := s.reg.Register(req.Setting)
	if err != nil {
		// A setting that parses but fails vet is well-formed input the
		// analyzer refuses — 422; anything unparsable is 400.
		status, code := http.StatusBadRequest, client.CodeBadRequest
		if _, perr := pde.ParseSetting(req.Setting); perr == nil {
			status, code = http.StatusUnprocessableEntity, client.CodeUnprocessable
		}
		writeErr(w, status, code, "registering setting: %v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
		s.clusterBroadcastSetting(r, c)
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "setting registered",
		slog.String("id", c.ID), slog.String("name", c.Name),
		slog.String("strategy", c.Strategy), slog.Bool("created", created))
	writeJSON(w, status, client.RegisterResponse{
		ID:       c.ID,
		Name:     c.Name,
		InCtract: c.Report.InCtract,
		Strategy: c.Strategy,
		Warnings: c.Warnings,
		Created:  created,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	all := s.reg.List()
	out := client.ListSettingsResponse{Settings: make([]client.SettingSummary, 0, len(all))}
	for _, c := range all {
		out.Settings = append(out.Settings, client.SettingSummary{
			ID: c.ID, Name: c.Name, InCtract: c.Report.InCtract, Strategy: c.Strategy,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.Evict(id) {
		writeErr(w, http.StatusNotFound, client.CodeNotFound, "setting %q is not registered", id)
		return
	}
	ofSetting := func(e *cacheEntry) bool { return e.settingID == id }
	s.cache.evictMatching(ofSetting)
	s.plans.evictMatching(ofSetting)
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

// pairFields points at the fields every solve request carries: the
// setting, one inline-or-ID slot per instance side, and the deadline.
// The skeleton reads the request through it, and the forwarding hop,
// which relays the request as it arrived, reads through it which sides
// travel by ID, to register those on an owner that lacks them.
type pairFields struct {
	settingID, source, sourceID, target, targetID *string
	deadlineMillis                                *int64
}

// solveRoute is one solve endpoint as the shared request skeleton
// (solveHandler) sees it: the request and response types, and the three
// steps that differ between routes. Everything else — decode, resolve,
// route/proxy, deadline, admit, error mapping, encode — is the
// skeleton's.
type solveRoute[Req, Resp any] struct {
	// op prefixes dispatch errors ("solve: ...").
	op string
	// fields exposes the request's pair fields.
	fields func(*Req) pairFields
	// queries returns the request's query texts; nil for a route that
	// takes none. A batch route's texts are size-checked before the
	// setting lookup and its errors name the failing index.
	queries func(*Req) []string
	batch   bool
	// forward is the typed-client call relaying the request to its
	// owning shard.
	forward func(*client.Client, context.Context, Req) (Resp, error)
	// answer runs the dispatch under the admitted context and builds
	// the response.
	answer func(s *Server, ctx context.Context, req *Req, p *solvePair, qs []pde.UCQ) (Resp, error)
}

// solveHandler is the one request skeleton of the solve routes: decode,
// resolve the pair, parse the queries, route on the ring (proxying to
// the owner), install the deadline and admit, dispatch, encode. Cluster
// routing happens before admission: a proxied solve spends this shard's
// time waiting on the owner, not computing.
func solveHandler[Req, Resp any](s *Server, rt *solveRoute[Req, Resp]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decode(w, r, &req) {
			return
		}
		var texts []string
		if rt.queries != nil {
			texts = rt.queries(&req)
		}
		if rt.batch {
			switch {
			case len(texts) == 0:
				writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "batch has no queries")
				return
			case len(texts) > maxBatchQueries:
				writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "batch has %d queries, max %d", len(texts), maxBatchQueries)
				return
			}
		}
		f := rt.fields(&req)
		p, ok := s.solveInput(w, f)
		if !ok {
			return
		}
		qs, ok := parseQueries(w, p.c, texts, rt.batch)
		if !ok {
			return
		}
		if owner, cl := s.clusterOwner(r, p.c.ID, p.src.ID, p.tgt.ID); cl != nil {
			if forward(s, w, r, rt, req, owner, cl, p) {
				return
			}
		}
		ctx, release := s.admit(w, r, *f.deadlineMillis)
		if release == nil {
			return
		}
		defer release()
		out, err := rt.answer(s, ctx, &req, p, qs)
		if err != nil {
			status, code := solveError(err)
			writeErr(w, status, code, "%s: %v", rt.op, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	}
}

// maxBatchQueries bounds one batch request; beyond it the request is
// rejected up front rather than admitted and half-served.
const maxBatchQueries = 4096

// parseQueries parses and validates one query per text against the
// setting's target schema. A single certain-answers query is a batch of
// one whose error messages carry no index.
func parseQueries(w http.ResponseWriter, c *Compiled, texts []string, batch bool) ([]pde.UCQ, bool) {
	label := func(n int) string {
		if batch {
			return fmt.Sprintf("query %d", n)
		}
		return "query"
	}
	out := make([]pde.UCQ, len(texts))
	for n, text := range texts {
		qs, err := pde.ParseQueries(text)
		if err == nil && len(qs) != 1 {
			err = fmt.Errorf("want exactly one query, got %d", len(qs))
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing %s: %v", label(n), err)
			return nil, false
		}
		if err := qs[0].Validate(c.Setting.Target); err != nil {
			writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "%s: %v", label(n), err)
			return nil, false
		}
		out[n] = qs[0]
	}
	return out, true
}

var existsRoute = solveRoute[client.SolveRequest, client.SolveResponse]{
	op: "solve",
	fields: func(r *client.SolveRequest) pairFields {
		return pairFields{&r.SettingID, &r.Source, &r.SourceID, &r.Target, &r.TargetID, &r.DeadlineMillis}
	},
	forward: (*client.Client).ExistsSolution,
	answer:  (*Server).answerExists,
}

var certainRoute = solveRoute[client.CertainRequest, client.CertainResponse]{
	op: "certain answers",
	fields: func(r *client.CertainRequest) pairFields {
		return pairFields{&r.SettingID, &r.Source, &r.SourceID, &r.Target, &r.TargetID, &r.DeadlineMillis}
	},
	queries: func(r *client.CertainRequest) []string { return []string{r.Query} },
	forward: (*client.Client).CertainAnswers,
	answer:  (*Server).answerCertain,
}

var certainBatchRoute = solveRoute[client.CertainBatchRequest, client.CertainBatchResponse]{
	op: "certain answers",
	fields: func(r *client.CertainBatchRequest) pairFields {
		return pairFields{&r.SettingID, &r.Source, &r.SourceID, &r.Target, &r.TargetID, &r.DeadlineMillis}
	},
	queries: func(r *client.CertainBatchRequest) []string { return r.Queries },
	batch:   true,
	forward: (*client.Client).CertainBatch,
	answer:  (*Server).answerCertainBatch,
}

func (s *Server) answerExists(ctx context.Context, req *client.SolveRequest, p *solvePair, _ []pde.UCQ) (client.SolveResponse, error) {
	start := time.Now()
	res, err := pde.SolveFrom(ctx, p.c.Setting, p.src.Inst, p.tgt.Inst, pde.Strategy(p.c.Strategy), req.Witness, p, s.options(req.MaxNodes))
	s.met.nodes.Add(res.Nodes)
	if err != nil {
		return client.SolveResponse{}, err
	}
	out := client.SolveResponse{
		Exists:        res.Exists,
		Strategy:      string(res.Strategy),
		Nodes:         res.Nodes,
		CacheHit:      p.hit,
		ElapsedMillis: time.Since(start).Milliseconds(),
	}
	if req.Witness && res.Solution != nil {
		out.Solution = pde.FormatInstance(res.Solution)
	}
	s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "solve",
		slog.String("setting", p.c.ID), slog.Bool("exists", res.Exists),
		slog.String("strategy", out.Strategy), slog.Int64("nodes", res.Nodes),
		slog.Bool("cache_hit", p.hit), slog.Int64("elapsed_ms", out.ElapsedMillis))
	return out, nil
}

func (s *Server) answerCertain(ctx context.Context, _ *client.CertainRequest, p *solvePair, qs []pde.UCQ) (client.CertainResponse, error) {
	start := time.Now()
	res, err := s.certain(ctx, p, qs)
	if err != nil {
		return client.CertainResponse{}, err
	}
	cr := res[0]
	out := client.CertainResponse{
		SolutionExists:    cr.SolutionExists,
		Certain:           cr.Certain,
		Answers:           wireAnswers(cr.Answers),
		SolutionsExamined: cr.SolutionsExamined,
		CacheHit:          p.hit,
		Compiled:          cr.Compiled,
		FallbackReason:    cr.FallbackReason,
		ElapsedMillis:     time.Since(start).Milliseconds(),
	}
	s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "certain",
		slog.String("setting", p.c.ID), slog.Int("answers", len(out.Answers)),
		slog.Bool("compiled", cr.Compiled),
		slog.Int64("elapsed_ms", out.ElapsedMillis))
	return out, nil
}

func (s *Server) answerCertainBatch(ctx context.Context, _ *client.CertainBatchRequest, p *solvePair, qs []pde.UCQ) (client.CertainBatchResponse, error) {
	start := time.Now()
	res, err := s.certain(ctx, p, qs)
	if err != nil {
		return client.CertainBatchResponse{}, err
	}
	out := client.CertainBatchResponse{Results: make([]client.CertainBatchResult, len(res)), CacheHit: p.hit}
	for n, cr := range res {
		out.Results[n] = client.CertainBatchResult{
			Name:           qs[n][0].Name,
			SolutionExists: cr.SolutionExists,
			Certain:        cr.Certain,
			Answers:        wireAnswers(cr.Answers),
			Compiled:       cr.Compiled,
			FallbackReason: cr.FallbackReason,
		}
	}
	out.ElapsedMillis = time.Since(start).Milliseconds()
	s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "certain batch",
		slog.String("setting", p.c.ID), slog.Int("queries", len(qs)),
		slog.Int64("elapsed_ms", out.ElapsedMillis))
	return out, nil
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req client.ClassifyRequest
	if !decode(w, r, &req) {
		return
	}
	var report pde.CtractReport
	switch {
	case req.SettingID != "" && req.Setting != "":
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "set either setting_id or setting, not both")
		return
	case req.SettingID != "":
		c := s.reg.Get(req.SettingID)
		if c == nil {
			writeErr(w, http.StatusNotFound, client.CodeNotFound, "setting %q is not registered", req.SettingID)
			return
		}
		report = c.Report
	case req.Setting != "":
		st, err := pde.ParseSetting(req.Setting)
		if err != nil {
			writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing setting: %v", err)
			return
		}
		report = pde.Classify(st)
	default:
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "set setting_id or setting")
		return
	}
	writeJSON(w, http.StatusOK, client.ClassifyResponse{
		InCtract:   report.InCtract,
		Cond1:      report.Cond1,
		Cond21:     report.Cond21,
		Cond22:     report.Cond22,
		Violations: report.Violations,
		Summary:    report.Summary(),
	})
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	var req client.VetRequest
	if !decode(w, r, &req) {
		return
	}
	file := req.File
	if file == "" {
		file = "<request>"
	}
	report := pde.Vet(req.Setting, file)
	errs, warns, infos := report.Counts()
	out := client.VetResponse{File: report.File, Errors: errs, Warnings: warns, Infos: infos}
	for _, d := range report.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, client.Diagnostic{
			Check:    d.Check,
			Severity: string(d.Severity),
			File:     d.File,
			Line:     d.Line,
			Col:      d.Col,
			Message:  d.Message,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, client.HealthResponse{
		Status:    status,
		Settings:  s.reg.Len(),
		Instances: s.inst.Len(),
		InFlight:  s.InFlight(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, s.renderMetrics())
}
