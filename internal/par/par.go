// Package par holds the execution configuration shared by every layer
// of the solver stack and the cancellation sentinel they all wrap.
//
// Each request runs serially: the chase, the block checks, the generic
// solver and plan evaluation are single-threaded procedures, and pdxd
// gets its concurrency from serving many requests at once. Instances
// shared between those requests are frozen after they are built (see
// DESIGN.md §8 and rel.Instance.Freeze), so concurrent readers never
// race.
package par

import (
	"context"
	"errors"
)

// Config is the execution configuration shared by every layer of the
// solver stack: homomorphism search (hom.Options is an alias), compiled
// plan evaluation (qplan.EvalOptions is an alias), and the chase and
// solver option structs, which embed it. Each layer hands its Config
// down unchanged, so one value set at the top reaches every search.
type Config struct {
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
