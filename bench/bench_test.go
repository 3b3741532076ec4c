package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// toyScale runs every workload in well under a second: a pool of 2,
// 100 persons, about 50 requests per window.
var toyScale = scale{
	pool:     2,
	lavN:     100,
	coldLAV:  100,
	coldFull: 50,
	batch:    8,
	windows:  1,
	clients:  2,
	maxOps:   25,
	traceOps: 20,
}

func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := &run{seed: 1, sc: toyScale, dir: t.TempDir()}
			w := newWorkload(name)
			if err := w.prepare(ctx, r); err != nil {
				t.Fatal(err)
			}
			res, err := measure(ctx, w, r, 0, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			s := summarize([]window{res})
			if s.failed != 0 || s.attempted != 2*toyScale.maxOps {
				t.Errorf("%d of %d requests failed, want 0 of %d: %v", s.failed, s.attempted, 2*toyScale.maxOps, s.errs)
			}
			d := res.delta
			switch name {
			case "warm-read":
				if m, h := d.family("pdxd_chase_cache_misses_total"), d.family("pdxd_chase_cache_hits_total"); m != 0 || h == 0 {
					t.Errorf("chase cache misses/hits = %g/%g, want 0 misses after a warm restart", m, h)
				}
			case "append-write":
				appends := d[`pdxd_requests_total{route="instances-append",status="200"}`]
				if resumes := d.family("pdxd_chase_cache_resumes_total"); appends == 0 || resumes != appends {
					t.Errorf("%g resumes for %g appends, want one resume per append", resumes, appends)
				}
			case "cluster-proxied":
				if p := d.family("pdxd_cluster_proxied_total"); p == 0 {
					t.Error("no request was proxied")
				}
			}
		})
	}
}

// TestResultLineNamesBenchmarkMetrics checks that every metric
// BENCHMARK.json declares appears in the result line with its unit, in
// both the end-to-end and the traced run of every workload.
func TestResultLineNamesBenchmarkMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if newWorkload(wl.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", wl.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := config{workloads: []string{wl.Name}, seed: 2, seconds: 60, trace: trace, sc: toyScale, dir: t.TempDir()}
			rep, err := benchmark(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", wl.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v, %d of %d failed", wl.Name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json declares %d", wl.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
