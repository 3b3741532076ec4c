package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/server"
	gen "repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

func TestScrapeLiveServer(t *testing.T) {
	ctx := context.Background()
	d, err := boot(1, func(int, []string) server.Config { return server.Config{} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c := d.clients(hc)[0]
	reg, err := c.Register(ctx, pde.FormatSetting(gen.LAVSetting()))
	if err != nil {
		t.Fatal(err)
	}
	before, err := scrape(ctx, hc, d.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	req := client.SolveRequest{SettingID: reg.ID, Source: "Person(a, g). Member(a, g)."}
	for n := 0; n < 2; n++ { // a miss, then a hit
		if _, err := c.ExistsSolution(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	after, err := scrape(ctx, hc, d.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	dl := delta(after, before)
	for series, want := range map[string]float64{
		"pdxd_chase_cache_misses_total":                             1,
		"pdxd_chase_cache_hits_total":                               1,
		`pdxd_requests_total{route="exists-solution",status="200"}`: 2,
	} {
		if got := dl[series]; got != want {
			t.Errorf("Δ%s = %g, want %g", series, got, want)
		}
	}
	fam := counters{`a{x="1"}`: 2, `a{x="2"}`: 3, "a": 1, "ab": 7}
	if got := fam.family("a"); got != 6 {
		t.Errorf("family sums %g, want 6 (every label set of a, not ab)", got)
	}
	for series := range after {
		if strings.HasPrefix(series, ignoredFamily) {
			t.Errorf("scrape kept %s, whose whole-millisecond truncation makes it meaningless", series)
		}
	}
}
