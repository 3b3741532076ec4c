package main

import (
	"fmt"
	"math"
	"slices"
)

// window is what one measurement window observed.
type window struct {
	lat      []float64 // ms per attempted request, +Inf for failed ones
	wrong    int       // responses that disagreed with ground truth
	errs     []string  // first few failure messages
	elapsed  float64   // s, from the first request to the last response
	setup    float64   // s, boot → first request servable
	mallocs  uint64    // heap allocations during the window
	bytes    uint64    // heap bytes allocated during the window
	liveHeap uint64    // HeapAlloc after a forced GC at window end
	delta    counters  // /metrics changes over the window
}

// record adds one request's outcome: a failed or refused request
// (sendErr) and a wrong answer (checkErr) both count as failed, with
// infinite latency so they miss every latency bound.
func (w *window) record(ms float64, sendErr, checkErr error) {
	err := sendErr
	if err == nil && checkErr != nil {
		w.wrong++
		err = checkErr
	}
	if err != nil {
		ms = math.Inf(1)
		if len(w.errs) < 3 {
			w.errs = append(w.errs, err.Error())
		}
	}
	w.lat = append(w.lat, ms)
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples: the smallest rank with at least p% of the samples at or
// below it.
func rank(n int, p float64) int {
	return max(int(math.Ceil(p/100*float64(n))), 1)
}

// metric is one reported value; a nil Value carries its Reason.
type metric struct {
	Value  *float64 `json:"value"`
	Unit   string   `json:"unit"`
	Reason string   `json:"reason,omitempty"`
}

func value(v float64, unit string) metric { return metric{Value: &v, Unit: unit} }

// tailMin is how many samples must lie beyond a reported tail
// percentile.
const tailMin = 10

// latency reports the nearest-rank p-th percentile of sorted latencies
// in ms, or no value and the reason: no samples, fewer than minBeyond
// samples beyond the percentile, or failed requests reaching it.
func latency(sorted []float64, p float64, minBeyond int) metric {
	m := metric{Unit: "ms"}
	if len(sorted) == 0 {
		m.Reason = "no samples"
		return m
	}
	r := rank(len(sorted), p)
	if beyond := len(sorted) - r; beyond < minBeyond {
		m.Reason = fmt.Sprintf("%d of %d samples lie beyond p%g, fewer than %d", beyond, len(sorted), p, minBeyond)
		return m
	}
	if v := sorted[r-1]; !math.IsInf(v, 1) {
		return value(v, "ms")
	}
	m.Reason = fmt.Sprintf("failed requests reach p%g", p)
	return m
}

// endToEnd names the end-to-end metrics in print order. BENCHMARK.json
// declares the same names and units, with a direction and bound each.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "ops/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
}

// summary is a workload's end-to-end result over all its windows.
type summary struct {
	attempted, failed, wrong int
	metrics                  map[string]metric
	errs                     []string
}

// summarize pools the windows: latency percentiles over every request
// of every window, throughput over the summed window time counting
// correct requests only, set-up time and live heap as medians over
// windows, allocations per attempted request.
func summarize(ws []window) summary {
	var s summary
	var lat, setups, heaps []float64
	var elapsed float64
	var mallocs, bytes uint64
	for _, w := range ws {
		lat = append(lat, w.lat...)
		s.wrong += w.wrong
		s.errs = append(s.errs, w.errs...)
		elapsed += w.elapsed
		setups = append(setups, w.setup)
		heaps = append(heaps, float64(w.liveHeap)/(1<<20))
		mallocs += w.mallocs
		bytes += w.bytes
	}
	slices.Sort(lat)
	s.attempted = len(lat)
	for _, v := range lat {
		if math.IsInf(v, 1) {
			s.failed++
		}
	}
	n := float64(max(s.attempted, 1))
	s.metrics = map[string]metric{
		"ops_per_s":       value(float64(s.attempted-s.failed)/elapsed, "ops/s"),
		"setup_s":         value(median(setups), "s"),
		"allocs_per_op":   value(float64(mallocs)/n, "count"),
		"alloc_kb_per_op": value(float64(bytes)/n/1024, "KiB"),
		"live_heap_mb":    value(median(heaps), "MiB"),
		"p50_ms":          latency(lat, 50, 0),
		"p99_ms":          latency(lat, 99, tailMin),
	}
	return s
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
