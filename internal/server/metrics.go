package server

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chase"
	"repro/internal/qplan"
)

// fallbackLabels are the reason labels of
// pdxd_chase_cache_fallbacks_total, in exposition order. The first
// two mirror the chase.Fallback* constants; everything else aggregates
// under "other".
var fallbackLabels = [...]string{
	chase.FallbackEgd,
	chase.FallbackFailed,
	"other",
}

// fallback returns the counter for a chase fallback reason, mapping
// unknown reasons to "other".
func (m *metrics) fallback(reason string) *atomic.Int64 {
	for i, l := range fallbackLabels[:len(fallbackLabels)-1] {
		if reason == l {
			return &m.cacheFallbacks[i]
		}
	}
	return &m.cacheFallbacks[len(fallbackLabels)-1]
}

// snapDropLabels are the reason labels of
// pdxd_snapshot_saves_dropped_total, indexed by the drop* constants: a
// save found the write-behind queue full, or its instance was evicted
// while it waited.
var snapDropLabels = [...]string{"queue_full", "evicted"}

const (
	dropQueueFull = iota
	dropEvicted
)

// compiledFallbackLabels are the reason labels of
// pdxd_certain_compiled_fallbacks_total: the qplan fallback taxonomy
// plus "other" for anything unexpected.
var compiledFallbackLabels = append(append([]string{}, qplan.FallbackReasons...), "other")

// compiledFallback returns the counter for a compiled-path fallback
// reason, mapping unknown reasons to "other".
func (m *metrics) compiledFallback(reason string) *atomic.Int64 {
	for i, l := range compiledFallbackLabels[:len(compiledFallbackLabels)-1] {
		if reason == l {
			return &m.compiledFallbacks[i]
		}
	}
	return &m.compiledFallbacks[len(compiledFallbackLabels)-1]
}

// metrics holds the daemon's counters and gauges, exposed in Prometheus
// text format on /metrics without any external dependency. Gauges that
// move on every request are atomics; the per-route/status counters sit
// behind a mutex-guarded map (two map operations per request, noise
// next to a solve).
type metrics struct {
	inFlight   atomic.Int64 // solves currently executing
	queueDepth atomic.Int64 // solves waiting for an admission slot
	shed       atomic.Int64 // requests rejected by admission control
	nodes      atomic.Int64 // cumulative generic-solver search nodes

	cacheResumes atomic.Int64 // append migrations that resumed incrementally

	// cacheFallbacks counts append migrations that re-chased fully,
	// split by the chase's fallback reason (indexed per fallbackLabels):
	// an egd blocks the incremental path, the previous chase failed, or
	// anything else (no previous result, unsupported dependency kinds).
	cacheFallbacks [len(fallbackLabels)]atomic.Int64

	// compiledFallbacks counts certain-answer requests that fell back
	// from the compiled path to solution enumeration, by qplan fallback
	// reason (indexed per compiledFallbackLabels; sized in newMetrics).
	compiledFallbacks []atomic.Int64

	snapshotSaves      atomic.Int64 // snapshots written to the store
	snapshotLoads      atomic.Int64 // snapshots loaded and installed at warm start
	snapshotLoadErrors atomic.Int64 // snapshots rejected at load (corrupt, unregistered, mismatched)
	warmTransfers      atomic.Int64 // snapshots pulled from a peer and installed

	// snapshotDropped counts the saves the write-behind worker never
	// wrote, by reason (indexed per snapDropLabels).
	snapshotDropped [len(snapDropLabels)]atomic.Int64

	clusterProxied       atomic.Int64 // solves forwarded to (and answered by) the owning shard
	clusterProxyInlined  atomic.Int64 // proxied solves that registered an instance on an owner lacking its ID
	clusterOwnerComputes atomic.Int64 // chases computed here as the ring owner (cache misses while clustered)
	clusterHandoffs      atomic.Int64 // cache entries pushed to their new owner after a ring change
	clusterRingChanges   atomic.Int64 // liveness transitions observed on the ring

	mu       sync.Mutex
	requests map[string]int64         // route|status -> count
	dur      map[string]time.Duration // route -> cumulative handler time
	durCount map[string]int64         // route -> observations
}

func newMetrics() *metrics {
	return &metrics{
		compiledFallbacks: make([]atomic.Int64, len(compiledFallbackLabels)),
		requests:          make(map[string]int64),
		dur:               make(map[string]time.Duration),
		durCount:          make(map[string]int64),
	}
}

// observe records one completed request.
func (m *metrics) observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s|%d", route, status)]++
	m.dur[route] += d
	m.durCount[route]++
	m.mu.Unlock()
}

// family is one /metrics family: name, help text, type, label names
// (in the order every series prints them) and its current series.
type family struct {
	name, help, typ string
	labels          []string
	series          []sample
}

// sample is one series of a family.
type sample struct {
	suffix string   // appended to the family name ("_sum"), usually empty
	values []string // one per family label
	value  string
}

// one is the single series of an unlabelled family.
func one(v int64) []sample { return []sample{{value: strconv.FormatInt(v, 10)}} }

// byLabel is one series per label value, counts[i] for labels[i].
func byLabel(labels []string, counts []atomic.Int64) []sample {
	out := make([]sample, len(labels))
	for i, l := range labels {
		out[i] = sample{values: []string{l}, value: strconv.FormatInt(counts[i].Load(), 10)}
	}
	return out
}

// families declares the /metrics exposition, in order, read at the
// moment of the call.
func (s *Server) families() []family {
	m := s.met
	requests, durations := m.routeSeries()
	entries, bytes := s.cache.stats()
	fs := []family{
		{"pdxd_requests_total", "Requests served, by route and HTTP status.", "counter", []string{"route", "status"}, requests},
		{"pdxd_request_duration_milliseconds", "Cumulative handler time, by route.", "counter", []string{"route"}, durations},
		{"pdxd_in_flight_solves", "Solves currently executing.", "gauge", nil, one(m.inFlight.Load())},
		{"pdxd_queue_depth", "Solves waiting for an admission slot.", "gauge", nil, one(m.queueDepth.Load())},
		{"pdxd_shed_total", "Requests rejected by admission control.", "counter", nil, one(m.shed.Load())},
		{"pdxd_solver_nodes_total", "Cumulative generic-solver search nodes.", "counter", nil, one(m.nodes.Load())},
		{"pdxd_registry_settings", "Registered settings.", "gauge", nil, one(int64(s.reg.Len()))},
		{"pdxd_instances", "Registered instances.", "gauge", nil, one(int64(s.inst.Len()))},
		{"pdxd_chase_cache_hits_total", "Solves served from a cached chased artifact.", "counter", nil, one(s.cache.hits.Load())},
		{"pdxd_chase_cache_misses_total", "Solves that chased from scratch.", "counter", nil, one(s.cache.misses.Load())},
		{"pdxd_chase_cache_resumes_total", "Append migrations that resumed the chase incrementally.", "counter", nil, one(m.cacheResumes.Load())},
		{"pdxd_chase_cache_fallbacks_total", "Append migrations that re-chased fully, by fallback reason.", "counter", []string{"reason"}, byLabel(fallbackLabels[:], m.cacheFallbacks[:])},
		{"pdxd_chase_cache_evictions_total", "Cache entries dropped by LRU bounds or explicit eviction.", "counter", nil, one(s.cache.evictions.Load())},
		{"pdxd_chase_cache_entries", "Cached chased artifacts.", "gauge", nil, one(int64(entries))},
		{"pdxd_chase_cache_bytes", "Approximate bytes held by the chase cache.", "gauge", nil, one(bytes)},
		{"pdxd_plan_cache_hits_total", "Certain-answer requests served by a cached compiled plan.", "counter", nil, one(s.plans.hits.Load())},
		{"pdxd_plan_cache_misses_total", "Compiled plans built on demand.", "counter", nil, one(s.plans.misses.Load())},
		{"pdxd_plan_cache_evictions_total", "Compiled plans dropped by the LRU bound or setting eviction.", "counter", nil, one(s.plans.evictions.Load())},
		{"pdxd_certain_compiled_fallbacks_total", "Certain-answer requests that fell back to solution enumeration, by reason.", "counter", []string{"reason"}, byLabel(compiledFallbackLabels, m.compiledFallbacks)},
		{"pdxd_snapshot_saves_total", "Snapshots written to the snapshot store.", "counter", nil, one(m.snapshotSaves.Load())},
		{"pdxd_snapshot_saves_dropped_total", "Snapshot saves never written, by reason.", "counter", []string{"reason"}, byLabel(snapDropLabels[:], m.snapshotDropped[:])},
		{"pdxd_snapshot_loads_total", "Snapshots loaded and installed at warm start.", "counter", nil, one(m.snapshotLoads.Load())},
		{"pdxd_snapshot_load_errors_total", "Snapshots rejected at load time.", "counter", nil, one(m.snapshotLoadErrors.Load())},
		{"pdxd_snapshot_warm_transfers_total", "Snapshots pulled from a peer and installed.", "counter", nil, one(m.warmTransfers.Load())},
		{"pdxd_cluster_proxied_total", "Solves forwarded to the owning shard.", "counter", nil, one(m.clusterProxied.Load())},
		{"pdxd_cluster_proxy_inlined_total", "Proxied solves that registered an instance on an owner lacking its ID.", "counter", nil, one(m.clusterProxyInlined.Load())},
		{"pdxd_cluster_owner_computes_total", "Chases computed on this shard as the ring owner.", "counter", nil, one(m.clusterOwnerComputes.Load())},
		{"pdxd_cluster_handoffs_total", "Cache entries pushed to their new owner after a ring change.", "counter", nil, one(m.clusterHandoffs.Load())},
		{"pdxd_cluster_ring_changes_total", "Liveness transitions observed on the ring.", "counter", nil, one(m.clusterRingChanges.Load())},
	}
	if s.cluster != nil {
		fs = append(fs, family{"pdxd_cluster_peers_alive", "Ring members this shard currently sees as up (including itself).", "gauge", nil, one(int64(s.cluster.ring.AliveCount()))})
	}
	return fs
}

// routeSeries reads the per-route families: pdxd_requests_total by
// route and status, and the _sum/_count pairs of
// pdxd_request_duration_milliseconds by route, each in sorted key order.
func (m *metrics) routeSeries() (requests, durations []sample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range slices.Sorted(maps.Keys(m.requests)) {
		route, status, _ := strings.Cut(k, "|")
		requests = append(requests, sample{values: []string{route, status}, value: strconv.FormatInt(m.requests[k], 10)})
	}
	for _, r := range slices.Sorted(maps.Keys(m.durCount)) {
		durations = append(durations,
			sample{"_sum", []string{r}, strconv.FormatFloat(float64(m.dur[r])/float64(time.Millisecond), 'f', 3, 64)},
			sample{"_count", []string{r}, strconv.FormatInt(m.durCount[r], 10)})
	}
	return requests, durations
}

// renderMetrics writes the Prometheus text exposition: families in
// declaration order, series in sorted label order, so scrapes are
// deterministic.
func (s *Server) renderMetrics() string {
	var b strings.Builder
	for _, f := range s.families() {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, x := range f.series {
			b.WriteString(f.name + x.suffix)
			for i, l := range f.labels {
				sep := ","
				if i == 0 {
					sep = "{"
				}
				fmt.Fprintf(&b, "%s%s=%q", sep, l, x.values[i])
			}
			if len(f.labels) > 0 {
				b.WriteByte('}')
			}
			b.WriteString(" " + x.value + "\n")
		}
	}
	return b.String()
}
