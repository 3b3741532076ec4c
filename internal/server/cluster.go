package server

// Cluster mode: consistent-hash routing of solve traffic across a
// static fleet of pdxd shards, over the snapshot wire format PR 8
// introduced for warm transfer.
//
// Every shard accepts every request. After a solve resolves its cache
// identity (setting hash, source hash, target hash), the shard looks
// the identity up on the ring (internal/cluster): the owner computes,
// everyone else proxies the request to the owner via the typed client,
// as it arrived: instance IDs stay IDs. An owner lacking an instance ID
// gets the instance registered from the proxy's canonical text (or the
// setting, when that is what it lacks) and the request retried, so the
// miss is paid once per ID and owner. A proxied request
// carries client.ForwardedHeader, and a shard receiving that header
// always computes locally — the one-hop guard that keeps transiently
// disagreeing ring views from proxying in circles. The cluster-level
// single-flight follows from composition: the owner's chase cache is
// already single-flight per key, and proxied requests block on the
// owner's HTTP response, so one chase serves the whole fleet no matter
// how many shards the same request storm lands on.
//
// Membership is the static -cluster-peers list; liveness comes from a
// health-probe loop. On every ring change (a peer died or came back),
// each shard scans its cache for entries whose owner is now some other
// live shard and hands them off over the snapshot wire format
// (PUT /v1/cache/entries/{key}); the receiver re-validates exactly like
// a warm start. A shard whose owner is unreachable computes locally
// rather than failing the request — availability degrades to extra
// compute, never to an error the client can see.

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/snap"
	"repro/pde/client"
)

// ClusterConfig enables sharded serving. The zero value of each field
// picks a sensible default; Self and Peers are required.
type ClusterConfig struct {
	// Self is the base URL this shard advertises to the fleet (its ring
	// identity), e.g. "http://10.0.0.1:8642".
	Self string
	// Peers is the static fleet membership (base URLs). It may or may
	// not include Self; membership cannot change at runtime, only
	// liveness can.
	Peers []string
	// ProbeInterval is the health-probe period; 0 means 2s.
	ProbeInterval time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	return c
}

// clusterState is the runtime half of ClusterConfig: the ring, one
// forwarded client per peer, and the monitor goroutine's lifecycle.
type clusterState struct {
	cfg      ClusterConfig
	ring     *cluster.Ring
	peerURLs []string // sorted members minus self; the probe order
	clients  map[string]*client.Client
	stop     chan struct{}
	done     chan struct{}
}

// newClusterState validates the config and builds the ring. The local
// member starts alive, every peer starts dead until its first
// successful probe.
func newClusterState(cfg ClusterConfig) (*clusterState, error) {
	cfg = cfg.withDefaults()
	ring, err := cluster.New(cfg.Self, cfg.Peers, 0)
	if err != nil {
		return nil, err
	}
	st := &clusterState{
		cfg:     cfg,
		ring:    ring,
		clients: make(map[string]*client.Client),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, m := range ring.Members() {
		if m.Self {
			continue
		}
		st.peerURLs = append(st.peerURLs, m.URL)
		// Every cluster-internal request is forwarded-marked: proxies,
		// handoffs, and setting broadcasts must never trigger a second
		// hop or a re-broadcast on the receiving shard.
		st.clients[m.URL] = client.New(m.URL).Forwarded()
	}
	return st, nil
}

// clusterMonitor is the liveness loop: probe every peer, update the
// ring, and rebalance misplaced cache entries after every change. One
// goroutine per server; Close stops it.
func (s *Server) clusterMonitor() {
	defer close(s.cluster.done)
	t := time.NewTicker(s.cluster.cfg.ProbeInterval)
	defer t.Stop()
	s.clusterProbe()
	for {
		select {
		case <-s.cluster.stop:
			return
		case <-t.C:
			s.clusterProbe()
		}
	}
}

// probeTimeout bounds one health probe.
const probeTimeout = time.Second

// clusterProbe runs one health round over the peers (in sorted order,
// so probe traffic is deterministic) and rebalances if the ring moved.
func (s *Server) clusterProbe() {
	changed := false
	for _, url := range s.cluster.peerURLs {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		_, err := s.cluster.clients[url].Health(ctx)
		cancel()
		if s.cluster.ring.SetAlive(url, err == nil) {
			changed = true
			s.met.clusterRingChanges.Add(1)
			s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "cluster ring change",
				slog.String("peer", url), slog.Bool("alive", err == nil),
				slog.Uint64("version", s.cluster.ring.Version()),
				slog.Int("alive_members", s.cluster.ring.AliveCount()))
		}
	}
	if changed {
		s.clusterRebalance()
	}
}

// clusterRebalance hands off every completed cache entry whose owner is
// now another live shard, then drops the local copy. Runs only from the
// monitor goroutine, so scans never overlap. Failures leave the entry
// in place — the next ring change (or this peer's next death) retries.
func (s *Server) clusterRebalance() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, e := range s.cache.entries() {
		owner := s.cluster.ring.Owner(cluster.Key(e.settingID, e.src.ID, e.tgt.ID))
		if owner == s.cluster.ring.Self() {
			continue
		}
		if !s.handoffEntry(ctx, owner, e) {
			continue
		}
		s.met.clusterHandoffs.Add(1)
		key := e.key
		s.cache.evictMatching(func(x *cacheEntry) bool { return x.key == key })
	}
}

// handoffEntry pushes one cache entry to its owner over the snapshot
// wire format, healing the owner's missing setting.
func (s *Server) handoffEntry(ctx context.Context, owner string, e *cacheEntry) bool {
	cl := s.cluster.clients[owner]
	se := snapEntry(e)
	if cl == nil || se == nil {
		return false
	}
	data, err := snap.Encode(se)
	if err != nil {
		s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "handoff encode failed",
			slog.String("key", e.key), slog.String("err", err.Error()))
		return false
	}
	err = healSetting(ctx, cl, s.reg.Get(e.settingID), func() error { return cl.PushCacheEntry(ctx, e.key, data) })
	if err != nil {
		s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "handoff push failed",
			slog.String("key", e.key), slog.String("owner", owner), slog.String("err", err.Error()))
		return false
	}
	s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "cache entry handed off",
		slog.String("key", e.key), slog.String("owner", owner))
	return true
}

// countOwnerCompute records a fleet-attributable chase: a cache-miss
// compute on a clustered shard (the ring made this shard responsible,
// or the forwarding guard did). Single-node daemons skip the counter —
// ownership is not a concept they have.
func (s *Server) countOwnerCompute() {
	if s.cluster != nil {
		s.met.clusterOwnerComputes.Add(1)
	}
}

// clusterOwner decides where a solve for the given cache identity runs.
// A nil client means local: single-node mode, this shard owns the key,
// or the request was already forwarded once (hop guard).
func (s *Server) clusterOwner(r *http.Request, settingID, srcID, tgtID string) (string, *client.Client) {
	if s.cluster == nil || r.Header.Get(client.ForwardedHeader) != "" {
		return "", nil
	}
	owner := s.cluster.ring.Owner(cluster.Key(settingID, srcID, tgtID))
	if owner == s.cluster.ring.Self() {
		return "", nil
	}
	return owner, s.cluster.clients[owner]
}

// forward relays a solve to its owning shard and reports whether the
// response was written. The request travels as it arrived: instance IDs
// stay IDs (content hashes, so an ID the owner holds names the same
// facts) and inline text is relayed as received. When the owner lacks
// an instance the request names by ID (an appended child, an instance
// registered on this shard only, an eviction), each by-ID side is
// registered there from its canonical text and the request retried by
// ID, so later solves naming it hit; a missing setting is healed the
// same way. The owner resolves and validates every forwarded request
// itself. Owner-side API errors relay as-is: the owner already computed
// (or refused) authoritatively. A transport failure (owner unreachable;
// no APIError to relay) writes nothing and returns false — the caller
// computes locally, and the monitor marks the peer dead on its next
// probe.
func forward[Req, Resp any](s *Server, w http.ResponseWriter, r *http.Request, rt *solveRoute[Req, Resp], req Req, owner string, cl *client.Client, p *solvePair) bool {
	f := rt.fields(&req)
	// The owner applies the request's own solve deadline; the margin
	// covers the extra hop.
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(*f.deadlineMillis)+5*time.Second)
	defer cancel()
	var out Resp
	call := func() (err error) {
		out, err = rt.forward(cl, ctx, req)
		return err
	}
	err := healSetting(ctx, cl, p.c, func() error {
		err := call()
		if !missingInstance(err) {
			return err
		}
		s.met.clusterProxyInlined.Add(1)
		for _, side := range [...]struct {
			id   string
			inst *StoredInstance
		}{{*f.sourceID, p.src}, {*f.targetID, p.tgt}} {
			if side.id == "" {
				continue
			}
			if _, err := cl.RegisterInstance(ctx, side.inst.Text); err != nil {
				return err
			}
		}
		return call()
	})
	var apiErr *client.APIError
	switch {
	case err == nil:
		s.met.clusterProxied.Add(1)
		writeJSON(w, http.StatusOK, out)
		return true
	case errors.As(err, &apiErr):
		s.met.clusterProxied.Add(1)
		writeErr(w, apiErr.Status, apiErr.Code, "%s", apiErr.Message)
		return true
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelWarn, "cluster proxy failed, computing locally",
		slog.String("owner", owner), slog.String("err", err.Error()))
	return false
}

// missingInstance reports whether err is a peer's not-found for an
// instance ID rather than for the setting: resolveInstance's message
// names the instance first.
func missingInstance(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Code == client.CodeNotFound &&
		strings.HasPrefix(apiErr.Message, "instance ")
}

// healSetting runs one cluster-internal call against a peer. When the
// peer answers not-found for lack of the setting, the setting is
// registered there (forwarded, so the peer does not re-broadcast) and
// the call retried once. A nil setting (evicted here meanwhile) is not
// healed.
func healSetting(ctx context.Context, cl *client.Client, c *Compiled, call func() error) error {
	err := call()
	var apiErr *client.APIError
	if c != nil && errors.As(err, &apiErr) && apiErr.Code == client.CodeNotFound && !missingInstance(err) {
		if _, rerr := cl.Register(ctx, c.Text); rerr == nil {
			err = call()
		}
	}
	return err
}

// clusterBroadcastSetting pushes a freshly registered setting to every
// live peer, so proxied and handed-off traffic lands on shards that
// already know it. Best-effort: a peer that misses the broadcast is
// healed on first contact by healSetting's register-retry.
func (s *Server) clusterBroadcastSetting(r *http.Request, c *Compiled) {
	if s.cluster == nil || r.Header.Get(client.ForwardedHeader) != "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, url := range s.cluster.peerURLs {
		if !s.cluster.ring.Alive(url) {
			continue
		}
		if _, err := s.cluster.clients[url].Register(ctx, c.Text); err != nil {
			s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "setting broadcast failed",
				slog.String("peer", url), slog.String("id", c.ID), slog.String("err", err.Error()))
		}
	}
}

// handleClusterStatus reports this shard's ring view, and resolves an
// owner when the query carries a cache identity (setting_id plus
// source_id; target_id defaults to the empty instance).
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	var out client.ClusterStatusResponse
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, out)
		return
	}
	out.Enabled = true
	out.Self = s.cluster.ring.Self()
	out.Version = s.cluster.ring.Version()
	for _, m := range s.cluster.ring.Members() {
		out.Members = append(out.Members, client.ClusterMemberStatus{URL: m.URL, Alive: m.Alive, Self: m.Self})
	}
	q := r.URL.Query()
	if sid, src := q.Get("setting_id"), q.Get("source_id"); sid != "" && src != "" {
		tgt := q.Get("target_id")
		if tgt == "" {
			tgt = emptyInstance.ID
		}
		out.Owner = s.cluster.ring.Owner(cluster.Key(sid, src, tgt))
	}
	writeJSON(w, http.StatusOK, out)
}
