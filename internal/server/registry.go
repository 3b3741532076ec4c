// Package server implements pdxd, the PDE serving daemon behind
// `pdx serve`: an HTTP/JSON API over a compiled-setting registry, with
// per-request deadlines threaded into the solver hot loops, bounded
// admission of concurrent solves, and dependency-free observability
// (structured logs, /healthz, /metrics).
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/pde"
)

// Compiled is a setting after one-time compilation: parsed, vetted,
// classified, and formatted to canonical text. Everything in it is
// immutable after registration, so handlers read it without locks.
type Compiled struct {
	// ID is "sha256:" plus the hex digest of the canonical text, so the
	// same setting always lands on the same ID regardless of source
	// formatting.
	ID string
	// Name is the setting's declared name.
	Name string
	// Text is the canonical text (pde.FormatSetting output).
	Text string
	// Setting is the compiled form used by solves.
	Setting *pde.Setting
	// Report is the C_tract classification computed at registration.
	Report pde.CtractReport
	// Strategy is the algorithm solves will use, as a wire string.
	Strategy string
	// Warnings counts non-error vet diagnostics seen at registration.
	Warnings int
	// Plan is the compiled certain-answer setting plan (origin table
	// plus solution probes), non-nil when the setting is in the
	// compilable C_tract fragment; certain-answer requests then skip the
	// chase entirely.
	Plan *pde.SettingPlan
	// PlanFallback is why Plan is nil ("" when it is set); surfaced as
	// the fallback_reason of certain-answer responses and a metric
	// label.
	PlanFallback string
}

// Registry is the concurrent compiled-setting store. Registration is
// idempotent by content hash; lookups are read-locked and return the
// shared immutable Compiled. Get, List, Evict and Len come from the
// shared store.
type Registry struct {
	store[*Compiled]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Compile parses, vets, and classifies setting text without touching
// any registry. A vet error rejects the setting (the daemon refuses to
// serve settings its own static analysis calls broken).
func Compile(src string) (*Compiled, error) {
	s, err := pde.ParseSetting(src)
	if err != nil {
		return nil, fmt.Errorf("parsing setting: %w", err)
	}
	report := pde.Vet(src, "<register>")
	if report.HasErrors() {
		for _, d := range report.Diagnostics {
			if d.Severity == pde.SeverityError {
				return nil, fmt.Errorf("vet: %s: %s", d.Check, d.Message)
			}
		}
	}
	_, warns, _ := report.Counts()
	cls := pde.Classify(s)
	strategy := string(pde.StrategyGeneric)
	if cls.InCtract {
		strategy = string(pde.StrategyTractable)
	}
	text := pde.FormatSetting(s)
	sum := sha256.Sum256([]byte(text))
	c := &Compiled{
		ID:       "sha256:" + hex.EncodeToString(sum[:]),
		Name:     s.Name,
		Text:     text,
		Setting:  s,
		Report:   cls,
		Strategy: strategy,
		Warnings: warns,
	}
	plan, err := pde.CompileSettingPlan(s)
	if err != nil {
		reason := pde.CompiledFallbackReason(err)
		if reason == "" {
			// Not a fragment refusal: the setting already passed Validate,
			// so this is unreachable; refuse registration rather than mask
			// it.
			return nil, fmt.Errorf("compiling certain-answer plan: %w", err)
		}
		c.PlanFallback = reason
		return c, nil
	}
	c.Plan = plan
	return c, nil
}

// Register compiles the setting and stores it under its content hash.
// Re-registering an already-present setting is a no-op that returns the
// existing entry with created=false.
func (r *Registry) Register(src string) (c *Compiled, created bool, err error) {
	c, err = Compile(src)
	if err != nil {
		return nil, false, err
	}
	c, created = r.add(c.ID, c)
	return c, created, nil
}
