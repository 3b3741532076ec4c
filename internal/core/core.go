// Package core implements peer data exchange settings (Definition 1 of
// the paper), solutions (Definition 2), and the algorithms for the
// existence-of-solutions problem SOL(P) (Definition 3): the
// polynomial-time algorithm of Figure 3 for the tractable class C_tract,
// and a complete backtracking solver that exhibits the NP behaviour of
// Theorem 3 on settings outside C_tract.
package core

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// Setting is a peer data exchange setting P = (S, T, Σst, Σts, Σt):
// a source schema, a target schema disjoint from it, source-to-target
// tgds, target-to-source tgds, and target constraints (tgds and egds
// over the target schema). The optional disjunctive target-to-source
// dependencies model the boundary example of Section 4.
type Setting struct {
	// Name identifies the setting in traces and error messages.
	Name string
	// Source and Target are the peer schemas; they must be disjoint.
	Source, Target *rel.Schema
	// ST are the source-to-target tgds Σst.
	ST []dep.TGD
	// TS are the target-to-source tgds Σts.
	TS []dep.TGD
	// TSDisj are target-to-source tgds with disjunctive heads; they are
	// outside the paper's core language and exist for the Section 4
	// boundary experiment (3-colorability).
	TSDisj []dep.DisjunctiveTGD
	// T are the target constraints Σt: target tgds and target egds.
	T []dep.Dependency
}

// Validate checks the well-formedness of the setting: disjoint schemas,
// source-to-target tgds with bodies over S and heads over T,
// target-to-source tgds the other way around, and target constraints
// entirely over T.
func (s *Setting) Validate() error {
	if s.Source == nil || s.Target == nil {
		return fmt.Errorf("core: setting %s: nil schema", s.Name)
	}
	if !s.Source.Disjoint(s.Target) {
		return fmt.Errorf("core: setting %s: source and target schemas overlap", s.Name)
	}
	for _, d := range s.ST {
		if err := d.Validate(s.Source, s.Target); err != nil {
			return fmt.Errorf("core: setting %s: Σst: %w", s.Name, err)
		}
	}
	for _, d := range s.TS {
		if err := d.Validate(s.Target, s.Source); err != nil {
			return fmt.Errorf("core: setting %s: Σts: %w", s.Name, err)
		}
	}
	for _, d := range s.TSDisj {
		if err := d.Validate(s.Target, s.Source); err != nil {
			return fmt.Errorf("core: setting %s: Σts (disjunctive): %w", s.Name, err)
		}
	}
	for _, d := range s.T {
		switch d := d.(type) {
		case dep.TGD:
			if err := d.Validate(s.Target, s.Target); err != nil {
				return fmt.Errorf("core: setting %s: Σt: %w", s.Name, err)
			}
		case dep.EGD:
			if err := d.Validate(s.Target, nil); err != nil {
				return fmt.Errorf("core: setting %s: Σt: %w", s.Name, err)
			}
		default:
			return fmt.Errorf("core: setting %s: Σt contains unsupported dependency type %T", s.Name, d)
		}
	}
	return nil
}

// TargetTGDsWeaklyAcyclic reports whether the tgds of Σt form a weakly
// acyclic set (Definition 5). Theorem 1 requires this for the NP upper
// bound; the chase requires it for guaranteed termination.
func (s *Setting) TargetTGDsWeaklyAcyclic() bool {
	return dep.WeaklyAcyclic(dep.TGDs(s.T))
}

// Classify decides membership of the setting in C_tract (Definition 9).
// C_tract is defined for settings without target constraints; a setting
// with Σt != ∅ is never in C_tract (Section 4 shows even a single target
// egd or a single full target tgd crosses the intractability boundary).
func (s *Setting) Classify() dep.CtractReport {
	rep := dep.ClassifyCtract(s.ST, s.TS, s.TSDisj)
	if len(s.T) > 0 {
		rep.InCtract = false
		rep.Violations = append(rep.Violations,
			"C_tract requires no target constraints (Σt must be empty)")
	}
	return rep
}

// StDeps returns Σst as a dependency list for the chase.
func (s *Setting) StDeps() []dep.Dependency {
	out := make([]dep.Dependency, len(s.ST))
	for i, d := range s.ST {
		out[i] = d
	}
	return out
}

// TsDeps returns the (non-disjunctive) Σts as a dependency list.
func (s *Setting) TsDeps() []dep.Dependency {
	out := make([]dep.Dependency, len(s.TS))
	for i, d := range s.TS {
		out[i] = d
	}
	return out
}

// ExchangeDeps returns Σst ∪ Σts ∪ disjunctive Σts as a dependency list,
// for satisfaction checking over a combined (source, target) instance.
func (s *Setting) ExchangeDeps() []dep.Dependency {
	out := s.StDeps()
	out = append(out, s.TsDeps()...)
	for _, d := range s.TSDisj {
		out = append(out, d)
	}
	return out
}

// IsSolution decides whether Jp is a solution for (I, J) in the setting
// (Definition 2): J ⊆ Jp, (I, Jp) satisfies Σst and Σts, and Jp
// satisfies Σt. Labeled nulls in Jp are treated as distinct fresh
// values. It stops at the first violation; SolutionViolations lists
// them all.
func (s *Setting) IsSolution(i, j, jp *rel.Instance) bool {
	return jp.ContainsAll(j) &&
		chase.Check(rel.Union(i, jp), s.ExchangeDeps(), hom.Options{}) &&
		chase.Check(jp, s.T, hom.Options{})
}

// SolutionViolations explains why Jp fails to be a solution for (I, J);
// it returns an empty slice when Jp is a solution.
func (s *Setting) SolutionViolations(i, j, jp *rel.Instance) []chase.Violation {
	var out []chase.Violation
	for _, f := range j.Facts() {
		if !jp.Contains(f) {
			out = append(out, chase.Violation{
				Dep:    "containment",
				Detail: fmt.Sprintf("J fact %s missing from candidate solution", f),
			})
		}
	}
	combined := rel.Union(i, jp)
	out = append(out, chase.Violations(combined, s.ExchangeDeps(), hom.Options{})...)
	out = append(out, chase.Violations(jp, s.T, hom.Options{})...)
	return out
}

// MultiSetting is a family of PDE settings sharing one target peer, as
// in the multi-PDE construction of Section 2. The peers' source schemas
// must be pairwise disjoint.
type MultiSetting struct {
	Name  string
	Peers []*Setting
}

// Validate checks each peer setting and the pairwise disjointness of
// the source schemas and the shared target schema.
func (m *MultiSetting) Validate() error {
	if len(m.Peers) == 0 {
		return fmt.Errorf("core: multi-setting %s has no peers", m.Name)
	}
	target := m.Peers[0].Target
	for idx, p := range m.Peers {
		if err := p.Validate(); err != nil {
			return err
		}
		if p.Target != target && p.Target.String() != target.String() {
			return fmt.Errorf("core: multi-setting %s: peer %d has a different target schema", m.Name, idx)
		}
		for jdx := idx + 1; jdx < len(m.Peers); jdx++ {
			if !p.Source.Disjoint(m.Peers[jdx].Source) {
				return fmt.Errorf("core: multi-setting %s: source schemas of peers %d and %d overlap", m.Name, idx, jdx)
			}
		}
	}
	return nil
}

// Combine builds the single PDE setting that simulates the multi-PDE
// setting: the union of the source schemas and of all dependency sets.
// Per Section 2, the combined setting has exactly the same space of
// solutions as the multi-PDE setting.
func (m *MultiSetting) Combine() (*Setting, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	src := rel.NewSchema()
	combined := &Setting{Name: m.Name + "-combined", Target: m.Peers[0].Target}
	for _, p := range m.Peers {
		var err error
		src, err = src.Union(p.Source)
		if err != nil {
			return nil, err
		}
		combined.ST = append(combined.ST, p.ST...)
		combined.TS = append(combined.TS, p.TS...)
		combined.TSDisj = append(combined.TSDisj, p.TSDisj...)
		combined.T = append(combined.T, p.T...)
	}
	combined.Source = src
	return combined, nil
}

// IsSolution decides whether Jp is a solution for ((I1,...,In), J) in
// the multi-PDE setting: Jp must be a solution for (Im, J) in every peer
// setting.
func (m *MultiSetting) IsSolution(sources []*rel.Instance, j, jp *rel.Instance) (bool, error) {
	if len(sources) != len(m.Peers) {
		return false, fmt.Errorf("core: multi-setting %s: %d source instances for %d peers", m.Name, len(sources), len(m.Peers))
	}
	for idx, p := range m.Peers {
		if !p.IsSolution(sources[idx], j, jp) {
			return false, nil
		}
	}
	return true, nil
}

// CombineSources unions the per-peer source instances into the source
// instance of the combined setting.
func (m *MultiSetting) CombineSources(sources []*rel.Instance) (*rel.Instance, error) {
	if len(sources) != len(m.Peers) {
		return nil, fmt.Errorf("core: multi-setting %s: %d source instances for %d peers", m.Name, len(sources), len(m.Peers))
	}
	out := rel.NewInstance()
	for _, src := range sources {
		out.AddAll(src)
	}
	return out, nil
}
