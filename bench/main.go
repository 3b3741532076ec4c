// Command bench is the end-to-end load benchmark of pdxd. It boots the
// daemon in-process behind a real http.Server on loopback, drives a
// workload through the typed client as a closed loop (each client sends
// its next request when the previous one is answered, over its own
// keep-alive connection), checks every response against ground truth
// computed from the generated facts, and prints every metric by name
// with its unit, then one JSON result line.
//
//	go run . [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/pde/client"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workloads []string
	seed      int64
	seconds   float64 // measured per workload, split evenly over the windows
	trace     bool
	sc        scale
	dir       string // scratch directory
}

// report is the JSON result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all (windows interleaved round-robin)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload, split evenly over its windows")
	trace := fs.Int("trace", 0, "1 replays requests through the layers and reports per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, sc: fullScale, workloads: workloadNames}
	if *name != "all" {
		cfg.workloads = []string{*name}
	}
	switch {
	case *name != "all" && newWorkload(*name) == nil:
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: --trace takes 0 or 1, not %d\n", *trace)
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "bench: --seconds must be positive\n")
		return 2
	}
	// Scratch files stay inside the working tree, under the directory
	// the build uses too.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	rep, err := benchmark(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// benchmark prepares every workload, then either measures them, their
// windows interleaved round-robin so drift in host speed spreads evenly
// over the workloads, or traces them one after another.
func benchmark(ctx context.Context, cfg config, out io.Writer) (report, error) {
	r := &run{seed: cfg.seed, sc: cfg.sc, dir: cfg.dir}
	ws := make([]workload, len(cfg.workloads))
	for i, name := range cfg.workloads {
		ws[i] = newWorkload(name)
		if err := ws[i].prepare(ctx, r); err != nil {
			return report{}, fmt.Errorf("%s: preparing inputs: %w", name, err)
		}
	}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	sums := make([]summary, len(ws))
	if cfg.trace {
		for i, w := range ws {
			s, err := traceWorkload(ctx, cfg.workloads[i], w, r, secs(cfg.seconds), out)
			if err != nil {
				return report{}, fmt.Errorf("%s: %w", cfg.workloads[i], err)
			}
			sums[i] = s
		}
	} else {
		results := make([][]window, len(ws))
		for win := 0; win < r.sc.windows; win++ {
			for i, w := range ws {
				res, err := measure(ctx, w, r, win, secs(cfg.seconds/float64(r.sc.windows)))
				if err != nil {
					return report{}, fmt.Errorf("%s: %w", cfg.workloads[i], err)
				}
				results[i] = append(results[i], res)
			}
		}
		for i, name := range cfg.workloads {
			sums[i] = summarize(results[i])
			printSummary(out, name, sums[i])
		}
	}
	rep := report{Correct: true, Metrics: make(map[string]metric)}
	for i, name := range cfg.workloads {
		s := sums[i]
		rep.Attempted += s.attempted
		rep.Failed += s.failed
		rep.Correct = rep.Correct && s.wrong == 0
		for k, m := range s.metrics {
			if len(ws) > 1 {
				k = name + "." + k
			}
			rep.Metrics[k] = m
		}
	}
	return rep, nil
}

// measure runs one window of a workload: set up (timed), run the
// closed loop for dur, then read allocations, /metrics and the live
// heap. Every client has its own connection; setup, scrapes and client
// 0 share the first.
func measure(ctx context.Context, w workload, r *run, win int, dur time.Duration) (res window, err error) {
	hcs := make([]*http.Client, r.sc.clients)
	for i := range hcs {
		hcs[i] = newHTTPClient()
		defer hcs[i].CloseIdleConnections()
	}
	start := time.Now()
	d, err := w.setup(ctx, r, hcs[0])
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	res.setup = time.Since(start).Seconds()
	before, err := scrapeAll(ctx, hcs[0], d.urls)
	if err != nil {
		return res, err
	}

	per := make([]window, r.sc.clients)
	streams := make([]stream, r.sc.clients)
	for c := range streams {
		streams[c] = w.stream(r, c, win)
	}
	var wg sync.WaitGroup
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start = time.Now()
	deadline := start.Add(dur)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cls := d.clients(hcs[c])
			for n := 0; (r.sc.maxOps == 0 || n < r.sc.maxOps) && time.Now().Before(deadline); n++ {
				o := streams[c].next()
				t := time.Now()
				resp, sendErr := o.send(ctx, cls)
				ms := float64(time.Since(t)) / float64(time.Millisecond)
				var checkErr error
				if sendErr == nil {
					checkErr = o.check(resp)
				}
				per[c].record(ms, sendErr, checkErr)
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)

	after, err := scrapeAll(ctx, hcs[0], d.urls)
	if err != nil {
		return res, err
	}
	// The live heap is read with the daemon at rest: every client's
	// unfinished work undone, background work (write-behind snapshot
	// saves, ring probes) finished and stopped. Only what the daemon
	// keeps between requests is left.
	for c, s := range streams {
		if err := settle(ctx, s, d.clients(hcs[c])); err != nil {
			return res, err
		}
	}
	d.closeServers()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.liveHeap = m2.HeapAlloc
	res.delta = delta(after, before)
	for _, p := range per {
		res.lat = append(res.lat, p.lat...)
		res.wrong += p.wrong
		res.errs = append(res.errs, p.errs...)
	}
	return res, nil
}

// settle sends a stream's settling requests.
func settle(ctx context.Context, s stream, cls []*client.Client) error {
	if s.settle == nil {
		return nil
	}
	for o := s.settle(); o != nil; o = s.settle() {
		resp, err := o.send(ctx, cls)
		if err == nil {
			err = o.check(resp)
		}
		if err != nil {
			return fmt.Errorf("settling after the window: %w", err)
		}
	}
	return nil
}

func printSummary(out io.Writer, name string, s summary) {
	for _, e := range endToEnd {
		m := s.metrics[e.name]
		if m.Value == nil {
			fmt.Fprintf(out, "%-16s %-16s %14s %s (%s)\n", name, e.name, "null", m.Unit, m.Reason)
			continue
		}
		fmt.Fprintf(out, "%-16s %-16s %14.4f %s\n", name, e.name, *m.Value, m.Unit)
	}
	rate := float64(s.failed) / math.Max(float64(s.attempted), 1)
	fmt.Fprintf(out, "%-16s %-16s %14.4f ratio (%d of %d requests failed or refused, %d of them wrong answers)\n",
		name, "error_rate", rate, s.failed, s.attempted, s.wrong)
	for _, e := range s.errs {
		fmt.Fprintf(out, "%-16s error: %s\n", name, e)
	}
}
