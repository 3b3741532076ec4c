// Package pdms implements the fragment of peer data management systems
// (Halevy et al.) needed for the Section 2 correspondence of the peer
// data exchange paper: peers with local sources related to their schema
// by storage descriptions, and peer mappings between peer schemas.
//
// The paper shows that every PDE setting P = (S, T, Σst, Σts, Σt) can be
// viewed as a PDMS N(P) with an equality storage description S_i* = S_i
// for each source relation, a containment storage description
// T_j* ⊆ T_j for each target relation, and peer mappings given by the
// constraints of P. Solutions for (I, J) in P then coincide with the
// consistent data instances of N(P). The package implements the
// translation and the consistency check so the correspondence can be
// tested and measured.
package pdms

import (
	"fmt"
	"sort"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dep"
	"repro/internal/hom"
	"repro/internal/rel"
)

// StorageDescription relates a peer's local source relation to a
// relation of the peer's schema. The paper's general form allows an
// arbitrary query over the local sources; the PDE translation only needs
// the replica form where the local relation mirrors one peer relation.
type StorageDescription struct {
	// Local is the local source relation name (the paper's R*).
	Local string
	// PeerRel is the peer schema relation R.
	PeerRel string
	// Equality selects an equality description R* = R; otherwise the
	// description is the containment R* ⊆ R.
	Equality bool
}

// String renders the description.
func (sd StorageDescription) String() string {
	if sd.Equality {
		return fmt.Sprintf("%s = %s", sd.Local, sd.PeerRel)
	}
	return fmt.Sprintf("%s ⊆ %s", sd.Local, sd.PeerRel)
}

// PDMS is a two-peer peer data management system in the fragment used
// by the correspondence: storage descriptions in replica form, peer
// mappings given by dependencies over the union of the peer schemas,
// and — completing the mapping language of Halevy et al. — optional
// definitional mappings given as a positive Datalog program whose
// defined (head) relations must equal the program's least fixpoint over
// the peer assignment.
type PDMS struct {
	// Name identifies the system.
	Name string
	// PeerSchemas is the union of the peers' schemas.
	PeerSchemas *rel.Schema
	// Storage holds the storage descriptions of both peers.
	Storage []StorageDescription
	// Mappings are the peer mappings (inclusion mappings rendered as
	// tgds, plus egds from Σt).
	Mappings []dep.Dependency
	// Definitional is an optional Datalog program of definitional
	// mappings; nil when absent. The paper's PDE translation never
	// produces one ("N(P) has no definitional mappings").
	Definitional *datalog.Program
}

// LocalName derives the local replica relation name for a peer
// relation (the paper's starred copy).
func LocalName(peerRel string) string { return peerRel + "_star" }

// FromPDE builds the PDMS N(P) of the Section 2 construction.
func FromPDE(s *core.Setting) (*PDMS, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	union, err := s.Source.Union(s.Target)
	if err != nil {
		return nil, err
	}
	p := &PDMS{Name: "N(" + s.Name + ")", PeerSchemas: union}
	for _, r := range s.Source.Relations() {
		p.Storage = append(p.Storage, StorageDescription{Local: LocalName(r), PeerRel: r, Equality: true})
	}
	for _, r := range s.Target.Relations() {
		p.Storage = append(p.Storage, StorageDescription{Local: LocalName(r), PeerRel: r})
	}
	p.Mappings = append(p.Mappings, s.ExchangeDeps()...)
	p.Mappings = append(p.Mappings, s.T...)
	return p, nil
}

// DataInstance pairs an assignment of the local sources with an
// assignment of the peer schemas: Local is the fixed data instance D
// restricted to the local sources (relations named by LocalName), and
// Peers is the candidate assignment G to the peer relations.
type DataInstance struct {
	Local *rel.Instance
	Peers *rel.Instance
}

// Consistent reports whether the peer assignment is consistent with the
// system and the local data: every storage description holds between
// the local sources and the peer relations, and the peer relations
// satisfy every peer mapping.
func (p *PDMS) Consistent(d DataInstance, opts hom.Options) bool {
	return len(p.Inconsistencies(d, opts)) == 0
}

// Inconsistencies explains every violated storage description and peer
// mapping.
func (p *PDMS) Inconsistencies(d DataInstance, opts hom.Options) []string {
	var out []string
	for _, sd := range p.Storage {
		local := relationFacts(d.Local, sd.Local)
		peer := relationFacts(d.Peers, sd.PeerRel)
		if sd.Equality {
			if !sameFacts(local, peer, sd.Local, sd.PeerRel) {
				out = append(out, fmt.Sprintf("storage description %s violated", sd))
			}
			continue
		}
		for _, t := range local {
			if !containsTuple(peer, t) {
				out = append(out, fmt.Sprintf("storage description %s violated: %s%s missing", sd, sd.PeerRel, t))
				break
			}
		}
	}
	for _, v := range chase.Violations(d.Peers, p.Mappings, opts) {
		out = append(out, fmt.Sprintf("peer mapping violated: %s", v))
	}
	out = append(out, p.definitionalViolations(d, opts)...)
	return out
}

// definitionalViolations checks the definitional mappings: every
// defined relation of the Datalog program must hold exactly the facts
// of the program's least fixpoint over the peer assignment (exact
// definitions, per Halevy et al.'s interpretation).
func (p *PDMS) definitionalViolations(d DataInstance, opts hom.Options) []string {
	if p.Definitional == nil {
		return nil
	}
	fix, err := p.Definitional.Eval(d.Peers, datalog.Options{Hom: opts})
	if err != nil {
		return []string{fmt.Sprintf("definitional mappings: %v", err)}
	}
	// Violations are reported (and asserted on in tests) in relation
	// order, not map iteration order.
	idb := make([]string, 0, len(p.Definitional.IDB()))
	for relName := range p.Definitional.IDB() {
		idb = append(idb, relName)
	}
	sort.Strings(idb)
	var out []string
	for _, relName := range idb {
		have := relationFacts(d.Peers, relName)
		want := relationFacts(fix, relName)
		if len(have) != len(want) {
			out = append(out, fmt.Sprintf("definitional mapping violated: %s has %d facts, its definition derives %d", relName, len(have), len(want)))
			continue
		}
		for _, t := range want {
			if !containsTuple(have, t) {
				out = append(out, fmt.Sprintf("definitional mapping violated: %s misses derived fact %s%s", relName, relName, t))
				break
			}
		}
	}
	return out
}

// PDEDataInstance builds the data instance of N(P) corresponding to the
// PDE inputs (I, J): the local sources hold starred copies of I and J.
func PDEDataInstance(s *core.Setting, i, j *rel.Instance) *rel.Instance {
	local := rel.NewInstance()
	for _, f := range i.Facts() {
		local.AddTuple(LocalName(f.Rel), f.Args)
	}
	for _, f := range j.Facts() {
		local.AddTuple(LocalName(f.Rel), f.Args)
	}
	return local
}

// PDESolutionAssignment builds the peer assignment corresponding to a
// candidate solution K: the source peer holds I and the target peer
// holds K.
func PDESolutionAssignment(i, k *rel.Instance) *rel.Instance {
	return rel.Union(i, k)
}

func relationFacts(inst *rel.Instance, name string) []rel.Tuple {
	r := inst.Relation(name)
	if r == nil {
		return nil
	}
	out := make([]rel.Tuple, r.Len())
	for i := range out {
		out[i] = r.TupleAt(i)
	}
	return out
}

func containsTuple(tuples []rel.Tuple, t rel.Tuple) bool {
	for _, u := range tuples {
		if u.String() == t.String() {
			return true
		}
	}
	return false
}

func sameFacts(a, b []rel.Tuple, _, _ string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, t := range a {
		if !containsTuple(b, t) {
			return false
		}
	}
	return true
}
