// Genomic data exchange: the motivating scenario of the paper's
// introduction. Swiss-Prot (the authoritative source peer) feeds a
// university database (the target peer). The university is willing to
// receive new gene products and citations, but only those Swiss-Prot
// vouches for — it cannot change Swiss-Prot's data, and its local
// annotations must survive the exchange.
//
// Run with: go run ./examples/genomic
package main

import (
	"fmt"
	"log"

	"repro/pde"
)

const settingSrc = `
setting genomic
source Protein/3, Cites/2
target GeneProduct/2, PaperRef/2

# Swiss-Prot offers each protein as a gene product, and each citation
# as a paper reference.
st: Protein(acc, name, org) -> GeneProduct(acc, name)
st: Cites(acc, pmid)        -> PaperRef(acc, pmid)

# The university only accepts data that Swiss-Prot vouches for.
ts: GeneProduct(acc, name) -> exists org: Protein(acc, name, org)
ts: PaperRef(acc, pmid)    -> Cites(acc, pmid)
`

const swissProt = `
Protein(P68871, 'hemoglobin beta',  human)
Protein(P69905, 'hemoglobin alpha', human)
Protein(P01308, insulin,            human)
Cites(P68871, 4171645)
Cites(P69905, 4171645)
Cites(P01308, 13872667)
`

// The university's pre-existing annotations: one vouched-for entry and,
// in the second scenario, one home-grown entry Swiss-Prot knows nothing
// about.
const universityClean = `
GeneProduct(P01308, insulin)
`

const universityDirty = `
GeneProduct(P01308, insulin)
GeneProduct(LOCAL0001, 'mystery protein')
`

func main() {
	setting, err := pde.ParseSetting(settingSrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("classification:", pde.Classify(setting).Summary())
	source, err := pde.ParseInstance(swissProt)
	if err != nil {
		log.Fatal(err)
	}

	for _, scenario := range []struct{ name, target string }{
		{"clean university instance", universityClean},
		{"with an unvouched local annotation", universityDirty},
	} {
		fmt.Printf("\n--- %s ---\n", scenario.name)
		target, err := pde.ParseInstance(scenario.target)
		if err != nil {
			log.Fatal(err)
		}
		res, err := pde.FindSolution(setting, source, target)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Exists {
			fmt.Println("no solution: the university's data violates the exchange constraints")
			for _, reason := range pde.ExplainNonSolution(setting, source, target, target) {
				fmt.Println("  -", reason)
			}
			continue
		}
		fmt.Printf("exchange succeeds (%s algorithm); the augmented university database:\n", res.Strategy)
		fmt.Println(indent(pde.FormatInstance(res.Solution)))

		// What does the university certainly know after the exchange?
		queries, err := pde.ParseQueries(`
refs(acc, pmid) :- PaperRef(acc, pmid)
hasInsulin :- GeneProduct(acc, insulin)
`)
		if err != nil {
			log.Fatal(err)
		}
		refs, err := pde.CertainAnswers(setting, source, target, queries[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("certain paper references: %d\n", len(refs.Answers))
		boolRes, err := pde.CertainAnswers(setting, source, target, queries[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("certainly stores an insulin gene product: %v\n", boolRes.Certain)
	}
}

func indent(s string) string {
	out := "  "
	for i := 0; i < len(s); i++ {
		out += string(s[i])
		if s[i] == '\n' {
			out += "  "
		}
	}
	return out
}
