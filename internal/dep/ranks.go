package dep

import "fmt"

// PositionRanks computes, for a weakly acyclic set of tgds, the rank of
// every position: the maximum number of special edges on any path of
// the dependency graph ending at that position. Ranks are the quantity
// behind the polynomial chase bound of Fagin et al. (and hence the
// paper's Lemma 1): values created at a rank-r position are at most
// polynomially many in the input, with the polynomial degree growing
// with r.
//
// It returns an error naming a cycle through a special edge when the
// set is not weakly acyclic, in which case ranks are unbounded.
//
// Algorithm: every edge is relaxed (weight 1 for a special edge, 0 for
// an ordinary one) until no rank changes. Since no cycle carries a
// special edge, going round a cycle never raises a rank, so the
// relaxation settles, as Bellman–Ford does, at the longest special-edge
// count of any path ending at each position.
func PositionRanks(tgds []TGD) (map[Position]int, error) {
	g := BuildDependencyGraph(tgds)
	if cycle, found := g.FindSpecialCycle(); found {
		return nil, fmt.Errorf("dep: not weakly acyclic: the dependency graph has the cycle %s through a special edge", FormatCycle(cycle))
	}
	ranks := make(map[Position]int, len(g.nodes))
	for p := range g.nodes {
		ranks[p] = 0
	}
	for changed := true; changed; {
		changed = false
		for w, edges := range []map[Position]map[Position]bool{g.ordinary, g.special} {
			for from, tos := range edges {
				for to := range tos {
					if r := ranks[from] + w; r > ranks[to] {
						ranks[to], changed = r, true
					}
				}
			}
		}
	}
	return ranks, nil
}

// MaxRank returns the largest position rank of a weakly acyclic set of
// tgds, or an error when the set is not weakly acyclic. Sets of full
// tgds have rank 0; acyclic inclusion dependency chains of depth d have
// rank d.
func MaxRank(tgds []TGD) (int, error) {
	ranks, err := PositionRanks(tgds)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, r := range ranks {
		if r > max {
			max = r
		}
	}
	return max, nil
}
