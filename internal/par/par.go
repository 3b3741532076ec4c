// Package par is the worker-pool execution layer shared by the parallel
// hot paths of the reproduction: block-homomorphism checks, chase
// trigger search, and the complete solver's violation scan.
//
// Every helper in this package is deterministic from the caller's point
// of view: the set of tasks executed and the value returned are
// identical at any worker count (and any Seed), so callers can expose a
// Parallelism knob without changing observable output. The only
// nondeterminism is internal scheduling — which worker runs which task,
// and how much early-cancellation saves.
//
// Callers must ensure that the task functions are safe to run
// concurrently; in this codebase that means they only read shared
// instances (see the freeze-after-build discipline documented in
// DESIGN.md §8 and rel.Instance.Freeze).
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config is the execution configuration shared by every layer of the
// solver stack: homomorphism search (hom.Options is an alias), compiled
// plan evaluation (qplan.EvalOptions is an alias), and the chase and
// solver option structs, which embed it. Each layer hands its Config
// down unchanged, so one value set at the top reaches every search.
type Config struct {
	// Parallelism bounds the workers of the parallel phases (chase
	// trigger search, block checks, the solver's violation scan, plan
	// leaf scans); see Degree. Results are byte-identical at every
	// setting; the knob only trades wall-clock for cores.
	// Single-homomorphism searches (hom.Exists, FindOne, ForEach) always
	// run serially — they are the inner loops the parallel layers fan out
	// over.
	Parallelism int
	// Seed perturbs how parallel work is distributed across workers (see
	// Do). It never affects results; 0 is the deterministic default
	// distribution.
	Seed int64
	// Ctx, when non-nil, cancels the work: the chase checks it at every
	// step, the generic solver at every node, and the homomorphism
	// searcher polls it periodically, so a canceled context stops a run
	// promptly with an error wrapping ErrCanceled and the context's own
	// error. A search cut short this way may return a spurious "no
	// homomorphism" — callers that set Ctx MUST check Ctx.Err() after a
	// search and discard the result when it is non-nil. nil means never
	// canceled.
	Ctx context.Context
}

// ErrCanceled is the shared identity of context-cancellation failures
// across the execution layer: the chase, the generic solver, and the
// tractable path all wrap it (together with the context's own error)
// when a context supplied through their options is canceled or its
// deadline expires, so callers can match cancellation uniformly with
// errors.Is regardless of which hot loop noticed it first.
var ErrCanceled = errors.New("execution canceled")

// Degree resolves a Parallelism knob to a worker count: 0 means
// GOMAXPROCS (use all available cores), anything below 1 means serial,
// and a positive value is taken literally.
func Degree(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// Do runs fn(task) exactly once for every task in [0, n), using up to
// degree workers. It returns after all tasks complete. A panic in any
// task is re-raised on the calling goroutine after the pool drains.
//
// seed rotates the order in which tasks are claimed (task visiting
// order is (claim+offset) mod n); it exists so load-balancing
// sensitivity can be probed without affecting results, which never
// depend on execution order.
func Do(n, degree int, seed int64, fn func(task int)) {
	if n <= 0 {
		return
	}
	if degree > n {
		degree = n
	}
	if degree <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	offset := int(seed % int64(n))
	if offset < 0 {
		offset += n
	}
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn((i + offset) % n)
		}
	}
	spawn(degree, run)
}

// FirstReject returns the smallest task index in [0, n) for which check
// returns false, or -1 when every check passes. Workers claim tasks in
// ascending order and skip any task above the best rejection found so
// far, so a failure near the front cancels most of the remaining work.
// The returned index is deterministic: it is always the minimum
// rejected index, exactly what a serial left-to-right scan returns.
func FirstReject(n, degree int, check func(task int) bool) int {
	if n <= 0 {
		return -1
	}
	if degree > n {
		degree = n
	}
	if degree <= 1 {
		for i := 0; i < n; i++ {
			if !check(i) {
				return i
			}
		}
		return -1
	}
	var next atomic.Int64
	var best atomic.Int64
	best.Store(int64(n))
	run := func() {
		for {
			i := next.Add(1) - 1
			if i >= int64(n) || i >= best.Load() {
				return
			}
			if !check(int(i)) {
				for {
					cur := best.Load()
					if i >= cur || best.CompareAndSwap(cur, i) {
						break
					}
				}
			}
		}
	}
	spawn(degree, run)
	if r := best.Load(); r < int64(n) {
		return int(r)
	}
	return -1
}

// spawn runs fn on degree goroutines, waits for all of them, and
// re-raises the first panic (if any) on the calling goroutine so worker
// panics surface like serial ones instead of crashing the process.
func spawn(degree int, fn func()) {
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < degree; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
				}
			}()
			fn()
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Chunks splits n items into at most maxChunks contiguous ranges of
// near-equal size, returning the half-open [start, end) bounds. It is
// the partitioning used to fan a large scan out over workers while
// keeping per-chunk results mergeable in input order.
func Chunks(n, maxChunks int) [][2]int {
	if n <= 0 || maxChunks < 1 {
		return nil
	}
	if maxChunks > n {
		maxChunks = n
	}
	out := make([][2]int, 0, maxChunks)
	for c := 0; c < maxChunks; c++ {
		start := c * n / maxChunks
		end := (c + 1) * n / maxChunks
		if start < end {
			out = append(out, [2]int{start, end})
		}
	}
	return out
}
