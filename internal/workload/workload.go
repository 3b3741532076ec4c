// Package workload generates the synthetic settings and instances used
// by the experiment harness and the benchmarks: C_tract families for the
// Theorem 4 scaling experiments (a LAV target-to-source family and a
// full source-to-target family), chain dependencies for the chase-length
// experiment (Lemma 1), cyclic dependencies for the weak-acyclicity
// experiment, and the Swiss-Prot-style genomic scenario that motivates
// the paper's introduction.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/certain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/depparse"
	"repro/internal/rel"
)

// ClusterKeys generates n deterministic ring-placement keys shaped
// exactly like the chase-cache identities pdxd shards: sha256-hex
// content IDs for the setting, the source instance, and the target
// instance, combined by cluster.Key. The population models a serving
// fleet — eight registered settings, each solved against many distinct
// source instances and the empty target — so placement benchmarks see
// the real key distribution rather than sequential strings.
func ClusterKeys(n int) []string {
	contentID := func(text string) string {
		sum := sha256.Sum256([]byte(text))
		return "sha256:" + hex.EncodeToString(sum[:])
	}
	emptyTgt := contentID("instance:empty")
	settings := make([]string, 8)
	for s := range settings {
		settings[s] = contentID(fmt.Sprintf("setting:%d", s))
	}
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = cluster.Key(settings[i%len(settings)], contentID(fmt.Sprintf("instance:%d", i)), emptyTgt)
	}
	return keys
}

// LAVSetting returns the Theorem 4 / Corollary 2 family: arbitrary
// source-to-target tgds (with existentials) and LAV target-to-source
// tgds, hence a member of C_tract via conditions 1 and 2.1.
//
//	Source: Person/2 (person, group), Member/2 (person, group)
//	Target: Rec/3 (person, group, note)
//	Σst: Person(x,g) -> exists u: Rec(x,g,u)
//	Σts: Rec(x,g,u)  -> Member(x,g)
//
// A solution exists iff every Person pair is also a Member pair.
func LAVSetting() *core.Setting {
	return &core.Setting{
		Name:   "lav-records",
		Source: rel.SchemaOf("Person", 2, "Member", 2),
		Target: rel.SchemaOf("Rec", 3),
		ST: []dep.TGD{{
			Label: "st-person",
			Body:  []dep.Atom{dep.NewAtom("Person", dep.Var("x"), dep.Var("g"))},
			Head:  []dep.Atom{dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u"))},
		}},
		TS: []dep.TGD{{
			Label: "ts-member",
			Body:  []dep.Atom{dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u"))},
			Head:  []dep.Atom{dep.NewAtom("Member", dep.Var("x"), dep.Var("g"))},
		}},
	}
}

// LAVInstance builds an instance pair for LAVSetting with n persons
// spread over max(1, n/10) groups. When solvable is false, one Member
// fact is withheld, so no solution exists.
func LAVInstance(n int, solvable bool, rng *rand.Rand) (*rel.Instance, *rel.Instance) {
	i := rel.NewInstance()
	groups := n / 10
	if groups < 1 {
		groups = 1
	}
	for p := 0; p < n; p++ {
		person := rel.Const(fmt.Sprintf("p%d", p))
		group := rel.Const(fmt.Sprintf("g%d", rng.Intn(groups)))
		i.Add("Person", person, group)
		if solvable || p != n-1 {
			i.Add("Member", person, group)
		}
	}
	return i, rel.NewInstance()
}

// KeyedLAVSetting is LAVSetting plus a key on the target: a Rec's
// person and group determine its note. The key egd is key-shaped
// (dep.EGD.KeyShaped), so the setting is resume-eligible under the
// union-find egd engine while still leaving C_tract (non-empty Σt).
// This is the generator family behind the egd-merge and keyed-resume
// benchmarks.
//
//	Source: Person/2 (person, group), Member/2 (person, group)
//	Target: Rec/3 (person, group, note)
//	Σst: Person(x,g)            -> exists u: Rec(x,g,u)
//	Σts: Rec(x,g,u)             -> Member(x,g)
//	Σt:  Rec(x,g,u), Rec(x,g,v) -> u = v
func KeyedLAVSetting() *core.Setting {
	base := LAVSetting()
	return &core.Setting{
		Name:   "keyed-lav-records",
		Source: base.Source,
		Target: base.Target,
		ST:     base.ST,
		TS:     base.TS,
		T: []dep.Dependency{dep.EGD{
			Label: "rec-note-key",
			Body: []dep.Atom{
				dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("u")),
				dep.NewAtom("Rec", dep.Var("x"), dep.Var("g"), dep.Var("v")),
			},
			Left: "u", Right: "v",
		}},
	}
}

// KeyedLAVInstance builds an egd-heavy instance pair for
// KeyedLAVSetting: n persons, each in two groups (both memberships
// present, so a solution exists), and a target pre-seeded with two
// draft notes for every person's first group. The drafts violate the
// key, so the chase performs one merge per person — alternating
// null-into-null and null-into-constant merges — while the second
// group's Rec facts come from Σst with fresh nulls and never violate
// it. The chase of Union(i, j) therefore applies Θ(n) merges over a
// Θ(n)-tuple Rec relation: the workload where rebuild-per-merge costs
// Θ(n²) and the union-find engine stays near-linear.
func KeyedLAVInstance(n int) (*rel.Instance, *rel.Instance) {
	i := rel.NewInstance()
	j := rel.NewInstance()
	groups := n / 10
	if groups < 1 {
		groups = 1
	}
	for p := 0; p < n; p++ {
		person := rel.Const(fmt.Sprintf("p%d", p))
		g1 := rel.Const(fmt.Sprintf("g%d", p%groups))
		g2 := rel.Const(fmt.Sprintf("g%d", (p+1)%groups))
		i.Add("Person", person, g1)
		i.Add("Person", person, g2)
		i.Add("Member", person, g1)
		i.Add("Member", person, g2)
		// Two drafts for (person, g1): the key egd merges them. Even
		// persons get two labeled nulls (null-into-null merge), odd ones
		// a null and a constant note (null-into-constant merge).
		j.Add("Rec", person, g1, rel.Null(2*p+1))
		if p%2 == 0 {
			j.Add("Rec", person, g1, rel.Null(2*p+2))
		} else {
			j.Add("Rec", person, g1, rel.Const(fmt.Sprintf("note%d", p)))
		}
	}
	return i, j
}

// KeyedLAVDeps is KeyedLAVSetting's Σst followed by its Σt, the list
// the egd-merge benchmarks and parity tests chase.
func KeyedLAVDeps() []dep.Dependency {
	s := KeyedLAVSetting()
	return append(append([]dep.Dependency{}, s.StDeps()...), s.T...)
}

// LAVAppend builds k fresh persons over four fresh groups, without
// memberships: LAVSetting's append workload (lav-resume, EXP-CACHE).
// The grown instance has no solution.
func LAVAppend(k int) *rel.Instance {
	a := rel.NewInstance()
	for p := 0; p < k; p++ {
		a.Add("Person", rel.Const(fmt.Sprintf("newp%d", p)), rel.Const(fmt.Sprintf("newg%d", p%4)))
	}
	return a
}

// KeyedLAVAppend builds a batch of k fresh persons (ids starting at n)
// over KeyedLAVSetting's source schema, each in one existing group with
// the matching membership: the append workload for the keyed-resume
// benchmark. The batch carries no drafts, so resuming it fires Σst and
// re-checks the key without any new merge.
func KeyedLAVAppend(n, k int) *rel.Instance {
	a := rel.NewInstance()
	groups := n / 10
	if groups < 1 {
		groups = 1
	}
	for p := n; p < n+k; p++ {
		person := rel.Const(fmt.Sprintf("p%d", p))
		g := rel.Const(fmt.Sprintf("g%d", p%groups))
		a.Add("Person", person, g)
		a.Add("Member", person, g)
	}
	return a
}

// FullSTSetting returns the Theorem 4 / Corollary 1 family: full
// source-to-target tgds with join-heavy, existential target-to-source
// tgds; a member of C_tract via conditions 1 and 2.2.
//
//	Source: E/2, P2/2, Adj/2
//	Target: H/2
//	Σst: E(x,y)         -> H(x,y)
//	Σts: H(x,y), H(y,z) -> P2(x,z)
//	     H(x,y)         -> exists u: Adj(x,u)
func FullSTSetting() *core.Setting {
	return &core.Setting{
		Name:   "full-st-graph",
		Source: rel.SchemaOf("E", 2, "P2", 2, "Adj", 2),
		Target: rel.SchemaOf("H", 2),
		ST: []dep.TGD{{
			Label: "st-copy",
			Body:  []dep.Atom{dep.NewAtom("E", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))},
		}},
		TS: []dep.TGD{
			{
				Label: "ts-compose",
				Body:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y")), dep.NewAtom("H", dep.Var("y"), dep.Var("z"))},
				Head:  []dep.Atom{dep.NewAtom("P2", dep.Var("x"), dep.Var("z"))},
			},
			{
				Label: "ts-adj",
				Body:  []dep.Atom{dep.NewAtom("H", dep.Var("x"), dep.Var("y"))},
				Head:  []dep.Atom{dep.NewAtom("Adj", dep.Var("x"), dep.Var("u"))},
			},
		},
	}
}

// FullSTInstance builds a random sparse digraph with n vertices and
// roughly 2n edges, its length-2 composition in P2, and a witness in
// Adj per vertex. When solvable is false one required P2 fact is
// withheld.
func FullSTInstance(n int, solvable bool, rng *rand.Rand) (*rel.Instance, *rel.Instance) {
	i := rel.NewInstance()
	type edge struct{ u, v int }
	var edges []edge
	seen := make(map[edge]bool)
	for e := 0; e < 2*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		ed := edge{u, v}
		if u == v || seen[ed] {
			continue
		}
		seen[ed] = true
		edges = append(edges, ed)
		i.Add("E", vtx(u), vtx(v))
		i.Add("Adj", vtx(u), rel.Const("w"))
	}
	// P2 = composition of E with itself.
	succ := make(map[int][]int)
	for _, e := range edges {
		succ[e.u] = append(succ[e.u], e.v)
	}
	var comp []edge
	for _, e := range edges {
		for _, z := range succ[e.v] {
			comp = append(comp, edge{e.u, z})
		}
	}
	for idx, c := range comp {
		if !solvable && idx == len(comp)-1 {
			continue
		}
		i.Add("P2", vtx(c.u), vtx(c.v))
	}
	if !solvable && len(comp) == 0 {
		// Degenerate graph without length-2 paths: withhold an Adj
		// witness instead so the instance is still unsolvable.
		if len(edges) > 0 {
			return FullSTInstance(n, solvable, rng) // retry with fresh edges
		}
	}
	return i, rel.NewInstance()
}

func vtx(v int) rel.Value { return rel.Const(fmt.Sprintf("v%d", v)) }

// ChainDeps returns the weakly acyclic chain
//
//	T0(x,y) -> exists z: T1(y,z), ..., T_{d-1}(x,y) -> exists z: T_d(y,z)
//
// used by the chase-length experiment (Lemma 1): the chase of an
// instance with n T0-facts terminates in exactly d*n steps.
func ChainDeps(depth int) []dep.Dependency {
	out := make([]dep.Dependency, 0, depth)
	for lvl := 0; lvl < depth; lvl++ {
		out = append(out, dep.TGD{
			Label: fmt.Sprintf("chain-%d", lvl),
			Body:  []dep.Atom{dep.NewAtom(chainRel(lvl), dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom(chainRel(lvl+1), dep.Var("y"), dep.Var("z"))},
		})
	}
	return out
}

func chainRel(lvl int) string { return fmt.Sprintf("T%d", lvl) }

// DeepChainDeps is ChainDeps with the dependencies listed deepest
// first. The chase processes a round's dependencies in order, so the
// forward listing cascades the whole chain inside a single round; the
// reversed listing fills exactly one layer per round, making the chase
// take depth+1 rounds. This is the deep-recursion shape where a naive
// chase re-enumerates every filled layer every round — Θ(depth²) body
// scans — while the semi-naive chase touches each layer's facts O(1)
// times (the perfsuite deep-chain cases).
func DeepChainDeps(depth int) []dep.Dependency {
	fwd := ChainDeps(depth)
	out := make([]dep.Dependency, 0, len(fwd))
	for i := len(fwd) - 1; i >= 0; i-- {
		out = append(out, fwd[i])
	}
	return out
}

// ChainInstance builds an instance with n distinct T0 facts.
func ChainInstance(n int) *rel.Instance {
	inst := rel.NewInstance()
	for k := 0; k < n; k++ {
		inst.Add("T0", rel.Const(fmt.Sprintf("a%d", k)), rel.Const(fmt.Sprintf("b%d", k)))
	}
	return inst
}

// CyclicDeps returns the non-weakly-acyclic tgd
// T(x,y) -> exists z: T(y,z), whose chase diverges.
func CyclicDeps() []dep.Dependency {
	return []dep.Dependency{dep.TGD{
		Label: "cyclic",
		Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"), dep.Var("y"))},
		Head:  []dep.Atom{dep.NewAtom("T", dep.Var("y"), dep.Var("z"))},
	}}
}

// CyclicInstance builds a seed instance for CyclicDeps.
func CyclicInstance() *rel.Instance {
	inst := rel.NewInstance()
	inst.Add("T", rel.Const("a"), rel.Const("b"))
	return inst
}

// Example1Setting returns the setting of the paper's Example 1: a
// solution exists iff every length-two path of E is an edge of E.
func Example1Setting() *core.Setting {
	return mustParseSetting(`
setting example1
source E/2
target H/2
st: E(x,z), E(z,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
`)
}

// StaffingSetting returns a data exchange setting (Σts = ∅) whose
// oblivious chase invents a redundant Assigned null per extra manager
// of an employee: the input of EXP-CORE.
func StaffingSetting() *core.Setting {
	return mustParseSetting(`
setting staffing
source Emp/2
target Assigned/2, Manages/2
st: Emp(name, mgr) -> exists team: Assigned(name, team)
st: Emp(name, mgr) -> Manages(mgr, name)
`)
}

// mustParseSetting parses one of this package's constant setting texts.
func mustParseSetting(src string) *core.Setting {
	s, err := depparse.ParseSetting(src)
	if err != nil {
		panic(err)
	}
	return s
}

// GenomicSetting returns the Swiss-Prot scenario from the paper's
// introduction: an authoritative source peer (Swiss-Prot) feeding a
// university target peer that restricts what it accepts.
//
//	Source: Protein/3 (acc, name, organism), Cites/2 (acc, pmid)
//	Target: GeneProduct/2 (acc, name), PaperRef/2 (acc, pmid)
//	Σst: Protein(a,n,o) -> GeneProduct(a,n)
//	     Cites(a,p)     -> PaperRef(a,p)
//	Σts: GeneProduct(a,n) -> exists o: Protein(a,n,o)
//	     PaperRef(a,p)    -> Cites(a,p)
//
// The target-to-source constraints say the university only keeps gene
// products and citations that Swiss-Prot vouches for; the setting is in
// C_tract (full Σst and LAV-shaped Σts).
func GenomicSetting() *core.Setting {
	return &core.Setting{
		Name:   "genomic",
		Source: rel.SchemaOf("Protein", 3, "Cites", 2),
		Target: rel.SchemaOf("GeneProduct", 2, "PaperRef", 2),
		ST: []dep.TGD{
			{
				Label: "st-protein",
				Body:  []dep.Atom{dep.NewAtom("Protein", dep.Var("a"), dep.Var("n"), dep.Var("o"))},
				Head:  []dep.Atom{dep.NewAtom("GeneProduct", dep.Var("a"), dep.Var("n"))},
			},
			{
				Label: "st-cites",
				Body:  []dep.Atom{dep.NewAtom("Cites", dep.Var("a"), dep.Var("p"))},
				Head:  []dep.Atom{dep.NewAtom("PaperRef", dep.Var("a"), dep.Var("p"))},
			},
		},
		TS: []dep.TGD{
			{
				Label: "ts-vouch",
				Body:  []dep.Atom{dep.NewAtom("GeneProduct", dep.Var("a"), dep.Var("n"))},
				Head:  []dep.Atom{dep.NewAtom("Protein", dep.Var("a"), dep.Var("n"), dep.Var("o"))},
			},
			{
				Label: "ts-cites",
				Body:  []dep.Atom{dep.NewAtom("PaperRef", dep.Var("a"), dep.Var("p"))},
				Head:  []dep.Atom{dep.NewAtom("Cites", dep.Var("a"), dep.Var("p"))},
			},
		},
	}
}

// GenomicInstance builds a source with n proteins (each with one
// citation) and a target with a few pre-existing local annotations.
// When clean is false, the target holds one GeneProduct unknown to the
// source, so no solution exists — the university's restriction rejects
// the exchange.
func GenomicInstance(n int, clean bool, rng *rand.Rand) (*rel.Instance, *rel.Instance) {
	i := rel.NewInstance()
	j := rel.NewInstance()
	for k := 0; k < n; k++ {
		acc := rel.Const(fmt.Sprintf("P%05d", k))
		name := rel.Const(fmt.Sprintf("kinase-%d", k))
		org := rel.Const(fmt.Sprintf("org%d", rng.Intn(5)))
		pmid := rel.Const(fmt.Sprintf("pmid%d", 10000+k))
		i.Add("Protein", acc, name, org)
		i.Add("Cites", acc, pmid)
		if k%7 == 0 {
			// Pre-existing local annotation that the source vouches for.
			j.Add("GeneProduct", acc, name)
		}
	}
	if !clean {
		j.Add("GeneProduct", rel.Const("LOCAL1"), rel.Const("unvouched-protein"))
	}
	return i, j
}

// RandomWeaklyAcyclicDeps generates a random mix of full tgds, acyclic
// inclusion dependencies with existentials, and key egds over a layered
// schema L0, L1, L2 (edges only go up the layers, so the set is weakly
// acyclic by construction). It is the generator behind the chase
// property suites: soundness, determinism, parallel-vs-serial parity,
// and semi-naive-vs-naive parity.
func RandomWeaklyAcyclicDeps(rng *rand.Rand) []dep.Dependency {
	layers := []string{"L0", "L1", "L2"}
	var out []dep.Dependency
	n := 1 + rng.Intn(4)
	for k := 0; k < n; k++ {
		from := rng.Intn(len(layers) - 1)
		to := from + 1 + rng.Intn(len(layers)-from-1)
		switch rng.Intn(3) {
		case 0: // full copy up
			out = append(out, dep.TGD{
				Label: fmt.Sprintf("full%d", k),
				Body:  []dep.Atom{dep.NewAtom(layers[from], dep.Var("x"), dep.Var("y"))},
				Head:  []dep.Atom{dep.NewAtom(layers[to], dep.Var("x"), dep.Var("y"))},
			})
		case 1: // inclusion with existential
			out = append(out, dep.TGD{
				Label: fmt.Sprintf("inc%d", k),
				Body:  []dep.Atom{dep.NewAtom(layers[from], dep.Var("x"), dep.Var("y"))},
				Head:  []dep.Atom{dep.NewAtom(layers[to], dep.Var("y"), dep.Var("z"))},
			})
		default: // join body, full head
			out = append(out, dep.TGD{
				Label: fmt.Sprintf("join%d", k),
				Body: []dep.Atom{
					dep.NewAtom(layers[from], dep.Var("x"), dep.Var("y")),
					dep.NewAtom(layers[from], dep.Var("y"), dep.Var("z")),
				},
				Head: []dep.Atom{dep.NewAtom(layers[to], dep.Var("x"), dep.Var("z"))},
			})
		}
	}
	if rng.Intn(2) == 0 {
		lvl := layers[rng.Intn(len(layers))]
		out = append(out, dep.EGD{
			Label: "key-" + lvl,
			Body:  []dep.Atom{dep.NewAtom(lvl, dep.Var("x"), dep.Var("y")), dep.NewAtom(lvl, dep.Var("x"), dep.Var("z"))},
			Left:  "y", Right: "z",
		})
	}
	return out
}

// RandomLayerInstance generates a small random instance over the
// layered schema of RandomWeaklyAcyclicDeps.
func RandomLayerInstance(rng *rand.Rand) *rel.Instance {
	inst := rel.NewInstance()
	dom := []rel.Value{rel.Const("a"), rel.Const("b"), rel.Const("c")}
	for f := 0; f < 1+rng.Intn(5); f++ {
		inst.Add("L0", dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
	}
	if rng.Intn(3) == 0 {
		inst.Add("L1", dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
	}
	return inst
}

// compilableVars is the variable pool of the random compilable-fragment
// generator.
var compilableVars = []string{"x", "y", "z", "w"}

// RandomCompilableSetting generates a random setting inside the
// compiled-plan fragment (package qplan): in C_tract via conditions 1
// and 2.1 (single-literal Σts bodies with all-distinct variables), no
// target constraints, and no marked variable in any Σts head, so the
// canonical target's nulls can never be forced to constants. The
// source-to-target side is unconstrained — full and LAV tgds, joins,
// multi-atom heads, repeated existentials — which is what exercises the
// unfolding.
func RandomCompilableSetting(rng *rand.Rand) *core.Setting {
	source := rel.SchemaOf("S1", 1, "S2", 2, "S3", 3)
	target := rel.SchemaOf("T1", 1, "T2", 2, "T3", 3)
	srcRels := []struct {
		name  string
		arity int
	}{{"S1", 1}, {"S2", 2}, {"S3", 3}}
	tgtRels := []struct {
		name  string
		arity int
	}{{"T1", 1}, {"T2", 2}, {"T3", 3}}

	s := &core.Setting{Name: "random-compilable", Source: source, Target: target}
	nST := 1 + rng.Intn(3)
	for k := 0; k < nST; k++ {
		var body []dep.Atom
		var bodyVars []string
		for b := 0; b < 1+rng.Intn(2); b++ {
			r := srcRels[rng.Intn(len(srcRels))]
			args := make([]dep.Term, r.arity)
			for i := range args {
				v := compilableVars[rng.Intn(len(compilableVars))]
				args[i] = dep.Var(v)
				bodyVars = append(bodyVars, v)
			}
			body = append(body, dep.NewAtom(r.name, args...))
		}
		var head []dep.Atom
		for h := 0; h < 1+rng.Intn(2); h++ {
			r := tgtRels[rng.Intn(len(tgtRels))]
			args := make([]dep.Term, r.arity)
			for i := range args {
				if rng.Intn(10) < 6 {
					args[i] = dep.Var(bodyVars[rng.Intn(len(bodyVars))])
				} else {
					// Existential; reusing e1/e2 across positions and
					// head atoms links nulls within the trigger.
					args[i] = dep.Var(fmt.Sprintf("e%d", 1+rng.Intn(2)))
				}
			}
			head = append(head, dep.NewAtom(r.name, args...))
		}
		s.ST = append(s.ST, dep.TGD{Label: fmt.Sprintf("st%d", k), Body: body, Head: head})
	}

	markedPos := dep.MarkedPositions(s.ST)
	nTS := 1 + rng.Intn(2)
	for k := 0; k < nTS; k++ {
		r := tgtRels[rng.Intn(len(tgtRels))]
		args := make([]dep.Term, r.arity)
		var safe []string // body vars at unmarked positions only
		for i := range args {
			v := fmt.Sprintf("b%d", i)
			args[i] = dep.Var(v)
			if !markedPos[dep.Position{Rel: r.name, Idx: i}] {
				safe = append(safe, v)
			}
		}
		body := []dep.Atom{dep.NewAtom(r.name, args...)}
		hr := srcRels[rng.Intn(len(srcRels))]
		hargs := make([]dep.Term, hr.arity)
		for i := range hargs {
			switch {
			case len(safe) > 0 && rng.Intn(10) < 7:
				hargs[i] = dep.Var(safe[rng.Intn(len(safe))])
			case rng.Intn(2) == 0:
				hargs[i] = dep.Cst([]string{"a", "b"}[rng.Intn(2)])
			default:
				// Existential in the ts head: allowed (it is searched
				// for in I, never bound to a target null).
				hargs[i] = dep.Var(fmt.Sprintf("f%d", 1+rng.Intn(2)))
			}
		}
		s.TS = append(s.TS, dep.TGD{Label: fmt.Sprintf("ts%d", k), Body: body, Head: []dep.Atom{dep.NewAtom(hr.name, hargs...)}})
	}
	return s
}

// RandomCompilableInstance generates a small (I, J) pair for
// RandomCompilableSetting — small enough that the chase-backed
// image-solution enumeration stays cheap, so parity suites can compare
// it against the compiled path.
func RandomCompilableInstance(rng *rand.Rand) (*rel.Instance, *rel.Instance) {
	dom := []rel.Value{rel.Const("a"), rel.Const("b"), rel.Const("c")}
	pick := func() rel.Value { return dom[rng.Intn(len(dom))] }
	i := rel.NewInstance()
	for f := 0; f < 1+rng.Intn(3); f++ {
		switch rng.Intn(3) {
		case 0:
			i.Add("S1", pick())
		case 1:
			i.Add("S2", pick(), pick())
		default:
			i.Add("S3", pick(), pick(), pick())
		}
	}
	j := rel.NewInstance()
	for f := 0; f < rng.Intn(3); f++ {
		switch rng.Intn(3) {
		case 0:
			j.Add("T1", pick())
		case 1:
			j.Add("T2", pick(), pick())
		default:
			j.Add("T3", pick(), pick(), pick())
		}
	}
	i.Freeze()
	j.Freeze()
	return i, j
}

// RandomTargetQuery generates a random UCQ over the target schema of
// RandomCompilableSetting: 1–2 disjuncts of 1–2 atoms each, an
// occasional constant, and (for open queries) a shared head arity of
// 1–2 variables.
func RandomTargetQuery(rng *rand.Rand, boolean bool) certain.UCQ {
	tgtRels := []struct {
		name  string
		arity int
	}{{"T1", 1}, {"T2", 2}, {"T3", 3}}
	headArity := 0
	if !boolean {
		headArity = 1 + rng.Intn(2)
	}
	var u certain.UCQ
	for d := 0; d < 1+rng.Intn(2); d++ {
		var body []dep.Atom
		var vars []string
		for b := 0; b < 1+rng.Intn(2); b++ {
			r := tgtRels[rng.Intn(len(tgtRels))]
			args := make([]dep.Term, r.arity)
			for i := range args {
				if rng.Intn(10) < 8 {
					v := compilableVars[rng.Intn(len(compilableVars))]
					args[i] = dep.Var(v)
					vars = append(vars, v)
				} else {
					args[i] = dep.Cst([]string{"a", "b"}[rng.Intn(2)])
				}
			}
			body = append(body, dep.NewAtom(r.name, args...))
		}
		if len(vars) == 0 {
			// Guarantee at least one variable so open heads resolve.
			body = append(body, dep.NewAtom("T1", dep.Var("x")))
			vars = append(vars, "x")
		}
		head := make([]string, headArity)
		for i := range head {
			head[i] = vars[rng.Intn(len(vars))]
		}
		u = append(u, certain.CQ{Name: "q", Head: head, Body: body})
	}
	return u
}
