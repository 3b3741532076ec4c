package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
	gen "repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

func TestPercentileIsNearestRank(t *testing.T) {
	sorted := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		m := latency(sorted, c.p, 0)
		if m.Value == nil || *m.Value != c.want {
			t.Errorf("p%g of %v = %+v, want %g", c.p, sorted, m, c.want)
		}
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	// 999 samples: p99 is rank 990, so 9 lie beyond it.
	if m := latency(samples(999), 99, tailMin); m.Value != nil || !strings.Contains(m.Reason, "9 of 999") {
		t.Errorf("p99 of 999 samples = %+v, want null with a reason", m)
	}
	if m := latency(samples(1000), 99, tailMin); m.Value == nil || *m.Value != 990 {
		t.Errorf("p99 of 1000 samples = %+v, want 990", m)
	}
}

func TestOpsPerSecondCountsCorrectOnly(t *testing.T) {
	var w window
	for i := 0; i < 8; i++ {
		w.record(1, nil, nil)
	}
	w.record(1, errors.New("connection reset"), nil)
	w.record(1, nil, errors.New("wrong verdict"))
	w.elapsed = 2
	s := summarize([]window{w})
	if got := *s.metrics["ops_per_s"].Value; got != 4 {
		t.Errorf("ops_per_s = %g, want 8 correct requests / 2 s = 4", got)
	}
	if s.attempted != 10 || s.failed != 2 || s.wrong != 1 {
		t.Errorf("attempted/failed/wrong = %d/%d/%d, want 10/2/1", s.attempted, s.failed, s.wrong)
	}
	if m := s.metrics["p50_ms"]; m.Value == nil || *m.Value != 1 {
		t.Errorf("p50 = %+v, want 1", m)
	}
	// Failed requests miss every latency bound.
	for _, i := range []int{8, 9} {
		if !math.IsInf(w.lat[i], 1) {
			t.Errorf("failed request %d recorded latency %g, want +Inf", i, w.lat[i])
		}
	}
}

// TestRefusedRequestIsAnError drives a draining daemon, which refuses
// every solve with 503, and checks the refusals count as failures.
func TestRefusedRequestIsAnError(t *testing.T) {
	d, err := boot(1, func(int, []string) server.Config { return server.Config{} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c := d.clients(hc)[0]
	reg, err := c.Register(context.Background(), pde.FormatSetting(gen.LAVSetting()))
	if err != nil {
		t.Fatal(err)
	}
	d.srvs[0].StartDrain()
	o := existsOp(0, reg.ID, "", true)
	o.solve.Source = "Person(a, g). Member(a, g)."
	_, sendErr := o.send(context.Background(), d.clients(hc))
	var apiErr *client.APIError
	if !errors.As(sendErr, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("solve on a draining daemon: %v, want a 503", sendErr)
	}
	var win window
	win.record(1, sendErr, nil)
	// Shedding (429) and queue timeouts (504) reach the client the same
	// way: as an APIError from send.
	for _, status := range []int{http.StatusTooManyRequests, http.StatusGatewayTimeout} {
		win.record(1, &client.APIError{Status: status}, nil)
	}
	win.elapsed = 1
	s := summarize([]window{win})
	if s.failed != 3 || s.wrong != 0 || *s.metrics["ops_per_s"].Value != 0 {
		t.Errorf("failed/wrong/ops_per_s = %d/%d/%g, want 3/0/0", s.failed, s.wrong, *s.metrics["ops_per_s"].Value)
	}
}
