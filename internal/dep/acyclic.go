package dep

import (
	"fmt"
	"sort"
	"strings"
)

// Position identifies an attribute position (R, i) of a relation symbol:
// the i-th column (0-based) of relation Rel.
type Position struct {
	Rel string
	Idx int
}

// String renders the position as R.i.
func (p Position) String() string { return fmt.Sprintf("%s.%d", p.Rel, p.Idx) }

// DependencyGraph is the position graph of Definition 5: nodes are
// positions, edges are ordinary or special. There can be both an
// ordinary and a special edge between the same pair of nodes.
type DependencyGraph struct {
	nodes    map[Position]bool
	ordinary map[Position]map[Position]bool
	special  map[Position]map[Position]bool
	// provenance maps each edge to the labels of the tgds that
	// contributed it, for diagnostics.
	provenance map[graphEdge][]string
}

// graphEdge identifies one edge of the dependency graph.
type graphEdge struct {
	From, To Position
	Special  bool
}

// BuildDependencyGraph constructs the dependency graph of a set of tgds
// per Definition 5 of the paper:
//
// For every tgd body(x) -> exists y head(x, y), and every body variable x
// that occurs in the head: for every occurrence of x at a body position
// (R, Ai) add an ordinary edge to every position (S, Bj) where x occurs
// in the head, and a special edge to every position (T, Ck) where an
// existentially quantified variable occurs in the head.
func BuildDependencyGraph(tgds []TGD) *DependencyGraph {
	g := &DependencyGraph{
		nodes:      make(map[Position]bool),
		ordinary:   make(map[Position]map[Position]bool),
		special:    make(map[Position]map[Position]bool),
		provenance: make(map[graphEdge][]string),
	}
	for _, d := range tgds {
		for _, a := range d.Body {
			for i := range a.Args {
				g.nodes[Position{a.Rel, i}] = true
			}
		}
		for _, a := range d.Head {
			for i := range a.Args {
				g.nodes[Position{a.Rel, i}] = true
			}
		}
		bodyVars := varSet(d.Body)
		headVarOcc := make(map[string][]Position)
		var existPositions []Position
		for _, a := range d.Head {
			for i, t := range a.Args {
				if t.IsConst {
					continue
				}
				pos := Position{a.Rel, i}
				if bodyVars[t.Name] {
					headVarOcc[t.Name] = append(headVarOcc[t.Name], pos)
				} else {
					existPositions = append(existPositions, pos)
				}
			}
		}
		for _, a := range d.Body {
			for i, t := range a.Args {
				if t.IsConst {
					continue
				}
				// Only body variables that occur in the head contribute
				// edges.
				if _, occurs := headVarOcc[t.Name]; !occurs {
					continue
				}
				from := Position{a.Rel, i}
				for _, to := range headVarOcc[t.Name] {
					g.addEdge(from, to, false, d.Label)
				}
				for _, to := range existPositions {
					g.addEdge(from, to, true, d.Label)
				}
			}
		}
	}
	return g
}

func (g *DependencyGraph) addEdge(from, to Position, special bool, label string) {
	m := g.ordinary
	if special {
		m = g.special
	}
	if m[from] == nil {
		m[from] = make(map[Position]bool)
	}
	m[from][to] = true
	key := graphEdge{From: from, To: to, Special: special}
	for _, l := range g.provenance[key] {
		if l == label {
			return
		}
	}
	g.provenance[key] = append(g.provenance[key], label)
}

// WeaklyAcyclic reports whether the set of tgds is weakly acyclic
// (Definition 5). Weakly acyclic sets include all sets of full tgds and
// all acyclic sets of inclusion dependencies; the chase with a weakly
// acyclic set terminates in polynomially many steps.
func WeaklyAcyclic(tgds []TGD) bool {
	_, found := BuildDependencyGraph(tgds).FindSpecialCycle()
	return !found
}

// CycleEdge is one edge of a witness cycle in the dependency graph.
type CycleEdge struct {
	From, To Position
	// Special marks the Definition 5 special edges (target of an
	// existentially quantified variable).
	Special bool
	// TGDs are the labels of the tgds that contributed the edge.
	TGDs []string
}

// String renders the edge as "R.1 → S.0" (ordinary) or "R.1 →̂ S.0"
// (special).
func (e CycleEdge) String() string {
	arrow := " → "
	if e.Special {
		arrow = " →̂ "
	}
	return e.From.String() + arrow + e.To.String()
}

// FindSpecialCycle returns a cycle through at least one special edge,
// if the graph has one: the witness that the tgd set is not weakly
// acyclic. The cycle starts with a special edge and each edge's To is
// the next edge's From (the last edge closes back to the first From).
// The result is deterministic: special edges are tried in sorted order
// and the shortest closing path is returned.
func (g *DependencyGraph) FindSpecialCycle() ([]CycleEdge, bool) {
	var specials []graphEdge
	for u, tos := range g.special {
		for v := range tos {
			specials = append(specials, graphEdge{From: u, To: v, Special: true})
		}
	}
	sort.Slice(specials, func(i, j int) bool {
		a, b := specials[i], specials[j]
		if a.From != b.From {
			return positionLess(a.From, b.From)
		}
		return positionLess(a.To, b.To)
	})
	for _, sp := range specials {
		path, ok := g.shortestPath(sp.To, sp.From)
		if !ok {
			continue
		}
		cycle := []CycleEdge{{From: sp.From, To: sp.To, Special: true, TGDs: g.provenance[sp]}}
		for i := 0; i+1 < len(path); i++ {
			from, to := path[i], path[i+1]
			special := !g.ordinary[from][to] // prefer the ordinary edge when both exist
			key := graphEdge{From: from, To: to, Special: special}
			cycle = append(cycle, CycleEdge{From: from, To: to, Special: special, TGDs: g.provenance[key]})
		}
		return cycle, true
	}
	return nil, false
}

// shortestPath returns the node sequence of a shortest path from one
// position to another over edges of either kind (the one-node path when
// from == to), exploring neighbours in sorted order for determinism.
func (g *DependencyGraph) shortestPath(from, to Position) ([]Position, bool) {
	if from == to {
		return []Position{from}, true
	}
	prev := map[Position]Position{from: from}
	frontier := []Position{from}
	for len(frontier) > 0 {
		var next []Position
		for _, cur := range frontier {
			var succs []Position
			for n := range g.ordinary[cur] {
				succs = append(succs, n)
			}
			for n := range g.special[cur] {
				if !g.ordinary[cur][n] {
					succs = append(succs, n)
				}
			}
			sort.Slice(succs, func(i, j int) bool { return positionLess(succs[i], succs[j]) })
			for _, n := range succs {
				if _, seen := prev[n]; seen {
					continue
				}
				prev[n] = cur
				if n == to {
					return rebuildPath(prev, from, to), true
				}
				next = append(next, n)
			}
		}
		frontier = next
	}
	return nil, false
}

func rebuildPath(prev map[Position]Position, from, to Position) []Position {
	var rev []Position
	for cur := to; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == from {
			break
		}
	}
	path := make([]Position, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path
}

func positionLess(a, b Position) bool {
	if a.Rel != b.Rel {
		return a.Rel < b.Rel
	}
	return a.Idx < b.Idx
}

// WeaklyAcyclicWitness decides weak acyclicity and, when the set is not
// weakly acyclic, returns a witness cycle through a special edge.
// acyclic is true iff the set is weakly acyclic (cycle is then nil).
func WeaklyAcyclicWitness(tgds []TGD) (cycle []CycleEdge, acyclic bool) {
	c, found := BuildDependencyGraph(tgds).FindSpecialCycle()
	if found {
		return c, false
	}
	return nil, true
}

// FormatCycle renders a witness cycle as a chain of positions, e.g.
// "H.1 →̂ H.0 → H.1".
func FormatCycle(cycle []CycleEdge) string {
	if len(cycle) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(cycle[0].From.String())
	for _, e := range cycle {
		if e.Special {
			b.WriteString(" →̂ ")
		} else {
			b.WriteString(" → ")
		}
		b.WriteString(e.To.String())
	}
	return b.String()
}
