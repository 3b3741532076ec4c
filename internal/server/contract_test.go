package server

// Wire-contract tests for the solve routes and /metrics: status and
// error code of every request the solve routes refuse, in the order the
// checks run, and the exact shape of the Prometheus exposition. Both
// pin behaviour clients and scrapers depend on, independent of how the
// handlers are put together.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/qplan"
	"repro/pde/client"
)

// postJSON posts body to path and returns the status and decoded error
// envelope (nil on a 2xx).
func postJSON(t *testing.T, base, path string, body any) (int, *client.APIError) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 == 2 {
		return resp.StatusCode, nil
	}
	var env struct {
		Error *client.APIError `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		t.Fatalf("%s: non-envelope error body %q", path, raw)
	}
	return resp.StatusCode, env.Error
}

func TestSolveRouteErrorContract(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.RegisterInstance(ctx, "E(a,b). E(b,c).")
	if err != nil {
		t.Fatal(err)
	}
	const (
		exists  = "/v1/exists-solution"
		certain = "/v1/certain-answers"
		batch   = "/v1/certain-answers/batch"
		unknown = "sha256:feed"
		q       = "q(x,y) :- H(x,y)"
	)
	tooMany := make([]string, maxBatchQueries+1)
	for n := range tooMany {
		tooMany[n] = q
	}
	cases := []struct {
		name   string
		path   string
		body   any
		status int
		code   string
		msg    string // substring the message must carry, when set
	}{
		{"exists unknown setting", exists, client.SolveRequest{SettingID: unknown, Source: "E(a,a)."}, 404, client.CodeNotFound, ""},
		{"exists unknown source_id", exists, client.SolveRequest{SettingID: reg.ID, SourceID: unknown}, 404, client.CodeNotFound, ""},
		{"exists source inline and by ID", exists, client.SolveRequest{SettingID: reg.ID, Source: "E(a,a).", SourceID: inst.ID}, 400, client.CodeBadRequest, ""},
		{"exists unparsable target", exists, client.SolveRequest{SettingID: reg.ID, Source: "E(a,a).", Target: "H(a,"}, 400, client.CodeBadRequest, ""},

		{"certain unknown setting", certain, client.CertainRequest{SettingID: unknown, Source: "E(a,a).", Query: q}, 404, client.CodeNotFound, ""},
		{"certain unknown source_id", certain, client.CertainRequest{SettingID: reg.ID, SourceID: unknown, Query: q}, 404, client.CodeNotFound, ""},
		{"certain source inline and by ID", certain, client.CertainRequest{SettingID: reg.ID, Source: "E(a,a).", SourceID: inst.ID, Query: q}, 400, client.CodeBadRequest, ""},
		{"certain unparsable target", certain, client.CertainRequest{SettingID: reg.ID, Source: "E(a,a).", Target: "H(a,", Query: q}, 400, client.CodeBadRequest, ""},
		{"certain unparsable query", certain, client.CertainRequest{SettingID: reg.ID, Source: "E(a,a).", Query: "nope"}, 400, client.CodeBadRequest, ""},
		{"certain two queries", certain, client.CertainRequest{SettingID: reg.ID, Source: "E(a,a).", Query: "q1(x) :- H(x,y)\nq2(x) :- H(y,x)"}, 400, client.CodeBadRequest, "want exactly one query, got 2"},
		{"certain non-target relation", certain, client.CertainRequest{SettingID: reg.ID, Source: "E(a,a).", Query: "q(x,y) :- E(x,y)"}, 400, client.CodeBadRequest, ""},
		// The query is checked after the setting lookup: a bad query
		// against an unknown setting is still a 404.
		{"certain bad query unknown setting", certain, client.CertainRequest{SettingID: unknown, Source: "E(a,a).", Query: "nope"}, 404, client.CodeNotFound, ""},

		{"batch unknown setting", batch, client.CertainBatchRequest{SettingID: unknown, Source: "E(a,a).", Queries: []string{q}}, 404, client.CodeNotFound, ""},
		{"batch unknown source_id", batch, client.CertainBatchRequest{SettingID: reg.ID, SourceID: unknown, Queries: []string{q}}, 404, client.CodeNotFound, ""},
		{"batch source inline and by ID", batch, client.CertainBatchRequest{SettingID: reg.ID, Source: "E(a,a).", SourceID: inst.ID, Queries: []string{q}}, 400, client.CodeBadRequest, ""},
		{"batch unparsable target", batch, client.CertainBatchRequest{SettingID: reg.ID, Source: "E(a,a).", Target: "H(a,", Queries: []string{q}}, 400, client.CodeBadRequest, ""},
		{"batch no queries", batch, client.CertainBatchRequest{SettingID: reg.ID, Source: "E(a,a)."}, 400, client.CodeBadRequest, "no queries"},
		{"batch too many queries", batch, client.CertainBatchRequest{SettingID: reg.ID, Source: "E(a,a).", Queries: tooMany}, 400, client.CodeBadRequest, "max 4096"},
		// The batch size is checked before the setting lookup.
		{"batch no queries unknown setting", batch, client.CertainBatchRequest{SettingID: unknown, Source: "E(a,a)."}, 400, client.CodeBadRequest, "no queries"},
		{"batch too many queries unknown setting", batch, client.CertainBatchRequest{SettingID: unknown, Source: "E(a,a).", Queries: tooMany}, 400, client.CodeBadRequest, "max 4096"},
		{"batch unparsable query at 2", batch, client.CertainBatchRequest{SettingID: reg.ID, Source: "E(a,a).", Queries: []string{q, q, "nope"}}, 400, client.CodeBadRequest, "query 2"},
		{"batch non-target query at 2", batch, client.CertainBatchRequest{SettingID: reg.ID, Source: "E(a,a).", Queries: []string{q, q, "q(x,y) :- E(x,y)"}}, 400, client.CodeBadRequest, "query 2"},
		{"batch two queries at 2", batch, client.CertainBatchRequest{SettingID: reg.ID, Source: "E(a,a).", Queries: []string{q, q, "q1(x) :- H(x,y)\nq2(x) :- H(y,x)"}}, 400, client.CodeBadRequest, "query 2"},

		{"exists malformed body", exists, "not an object", 400, client.CodeBadRequest, "decoding request body"},
		{"certain malformed body", certain, "not an object", 400, client.CodeBadRequest, "decoding request body"},
		{"batch malformed body", batch, "not an object", 400, client.CodeBadRequest, "decoding request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, apiErr := postJSON(t, c.Base(), tc.path, tc.body)
			if status != tc.status || apiErr == nil || apiErr.Code != tc.code {
				t.Fatalf("got %d %+v, want %d %s", status, apiErr, tc.status, tc.code)
			}
			if tc.msg != "" && !strings.Contains(apiErr.Message, tc.msg) {
				t.Fatalf("message %q does not mention %q", apiErr.Message, tc.msg)
			}
		})
	}
}

// maskedMetrics scrapes /metrics and returns its lines with every
// sample value cut off: HELP/TYPE lines verbatim, series as
// name{labels}.
func maskedMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// metricsShape is the single-node exposition after one /healthz call.
const metricsShape = `# HELP pdxd_requests_total Requests served, by route and HTTP status.
# TYPE pdxd_requests_total counter
pdxd_requests_total{route="healthz",status="200"}
# HELP pdxd_request_duration_milliseconds Cumulative handler time, by route.
# TYPE pdxd_request_duration_milliseconds counter
pdxd_request_duration_milliseconds_sum{route="healthz"}
pdxd_request_duration_milliseconds_count{route="healthz"}
# HELP pdxd_in_flight_solves Solves currently executing.
# TYPE pdxd_in_flight_solves gauge
pdxd_in_flight_solves
# HELP pdxd_queue_depth Solves waiting for an admission slot.
# TYPE pdxd_queue_depth gauge
pdxd_queue_depth
# HELP pdxd_shed_total Requests rejected by admission control.
# TYPE pdxd_shed_total counter
pdxd_shed_total
# HELP pdxd_solver_nodes_total Cumulative generic-solver search nodes.
# TYPE pdxd_solver_nodes_total counter
pdxd_solver_nodes_total
# HELP pdxd_registry_settings Registered settings.
# TYPE pdxd_registry_settings gauge
pdxd_registry_settings
# HELP pdxd_instances Registered instances.
# TYPE pdxd_instances gauge
pdxd_instances
# HELP pdxd_chase_cache_hits_total Solves served from a cached chased artifact.
# TYPE pdxd_chase_cache_hits_total counter
pdxd_chase_cache_hits_total
# HELP pdxd_chase_cache_misses_total Solves that chased from scratch.
# TYPE pdxd_chase_cache_misses_total counter
pdxd_chase_cache_misses_total
# HELP pdxd_chase_cache_resumes_total Append migrations that resumed the chase incrementally.
# TYPE pdxd_chase_cache_resumes_total counter
pdxd_chase_cache_resumes_total
# HELP pdxd_chase_cache_fallbacks_total Append migrations that re-chased fully, by fallback reason.
# TYPE pdxd_chase_cache_fallbacks_total counter
pdxd_chase_cache_fallbacks_total{reason="egd"}
pdxd_chase_cache_fallbacks_total{reason="failed"}
pdxd_chase_cache_fallbacks_total{reason="other"}
# HELP pdxd_chase_cache_evictions_total Cache entries dropped by LRU bounds or explicit eviction.
# TYPE pdxd_chase_cache_evictions_total counter
pdxd_chase_cache_evictions_total
# HELP pdxd_chase_cache_entries Cached chased artifacts.
# TYPE pdxd_chase_cache_entries gauge
pdxd_chase_cache_entries
# HELP pdxd_chase_cache_bytes Approximate bytes held by the chase cache.
# TYPE pdxd_chase_cache_bytes gauge
pdxd_chase_cache_bytes
# HELP pdxd_plan_cache_hits_total Certain-answer requests served by a cached compiled plan.
# TYPE pdxd_plan_cache_hits_total counter
pdxd_plan_cache_hits_total
# HELP pdxd_plan_cache_misses_total Compiled plans built on demand.
# TYPE pdxd_plan_cache_misses_total counter
pdxd_plan_cache_misses_total
# HELP pdxd_plan_cache_evictions_total Compiled plans dropped by the LRU bound or setting eviction.
# TYPE pdxd_plan_cache_evictions_total counter
pdxd_plan_cache_evictions_total
# HELP pdxd_certain_compiled_fallbacks_total Certain-answer requests that fell back to solution enumeration, by reason.
# TYPE pdxd_certain_compiled_fallbacks_total counter
FALLBACKS
# HELP pdxd_snapshot_saves_total Snapshots written to the snapshot store.
# TYPE pdxd_snapshot_saves_total counter
pdxd_snapshot_saves_total
# HELP pdxd_snapshot_saves_dropped_total Snapshot saves never written, by reason.
# TYPE pdxd_snapshot_saves_dropped_total counter
pdxd_snapshot_saves_dropped_total{reason="queue_full"}
pdxd_snapshot_saves_dropped_total{reason="evicted"}
# HELP pdxd_snapshot_loads_total Snapshots loaded and installed at warm start.
# TYPE pdxd_snapshot_loads_total counter
pdxd_snapshot_loads_total
# HELP pdxd_snapshot_load_errors_total Snapshots rejected at load time.
# TYPE pdxd_snapshot_load_errors_total counter
pdxd_snapshot_load_errors_total
# HELP pdxd_snapshot_warm_transfers_total Snapshots pulled from a peer and installed.
# TYPE pdxd_snapshot_warm_transfers_total counter
pdxd_snapshot_warm_transfers_total
# HELP pdxd_cluster_proxied_total Solves forwarded to the owning shard.
# TYPE pdxd_cluster_proxied_total counter
pdxd_cluster_proxied_total
# HELP pdxd_cluster_proxy_inlined_total Proxied solves that registered an instance on an owner lacking its ID.
# TYPE pdxd_cluster_proxy_inlined_total counter
pdxd_cluster_proxy_inlined_total
# HELP pdxd_cluster_owner_computes_total Chases computed on this shard as the ring owner.
# TYPE pdxd_cluster_owner_computes_total counter
pdxd_cluster_owner_computes_total
# HELP pdxd_cluster_handoffs_total Cache entries pushed to their new owner after a ring change.
# TYPE pdxd_cluster_handoffs_total counter
pdxd_cluster_handoffs_total
# HELP pdxd_cluster_ring_changes_total Liveness transitions observed on the ring.
# TYPE pdxd_cluster_ring_changes_total counter
pdxd_cluster_ring_changes_total
`

// clusterMetricsShape is what a cluster shard appends to metricsShape.
const clusterMetricsShape = `# HELP pdxd_cluster_peers_alive Ring members this shard currently sees as up (including itself).
# TYPE pdxd_cluster_peers_alive gauge
pdxd_cluster_peers_alive
`

func TestMetricsExpositionShape(t *testing.T) {
	var fallbacks strings.Builder
	for _, l := range append(append([]string{}, qplan.FallbackReasons...), "other") {
		fallbacks.WriteString(`pdxd_certain_compiled_fallbacks_total{reason="` + l + `"}` + "\n")
	}
	single := strings.Replace(metricsShape, "FALLBACKS\n", fallbacks.String(), 1)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"single-node", Config{}, single},
		{"cluster shard", Config{Cluster: &ClusterConfig{Self: "http://shard-0.invalid:8642"}}, single + clusterMetricsShape},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			t.Cleanup(s.Close)
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got := maskedMetrics(t, ts.URL); got != tc.want {
				t.Fatalf("exposition shape drifted:\n--- got\n%s--- want\n%s", got, tc.want)
			}
		})
	}
}
