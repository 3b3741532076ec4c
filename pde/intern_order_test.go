package pde_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/pde"
)

// TestOutputOrderIndependentOfInternOrder: constants are interned
// handles, and no output path may order them by handle. Two sets of
// fresh texts (per-run random prefixes keep them unseen by the process)
// are interned, one in reverse text order and one in text order. The
// same instance built over each must print byte-identical facts,
// formatted text and certain answers once the prefix is masked, all
// sorted by text; building it backward must not change the sorted
// outputs either.
func TestOutputOrderIndependentOfInternOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	s := mustSetting(t, example1)
	pick := mustSetting(t, `
source E/2, D/1
target H/2
st: D(x) -> exists z: H(x,z)
ts: H(x,z) -> E(x,z)
`)
	queries, err := pde.ParseQueries("q(x, y) :- H(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	outputs := func(reverseIntern bool) []string {
		prefix := fmt.Sprintf("fresh%016x", rng.Uint64())
		suffixes := []string{"a", "b", "c", "ab", "abc", "é", "éa", "z", "日本", "日本語", "Z", "0", "10", "9", "_x"}
		texts := make([]string, 0, 3*len(suffixes))
		for _, x := range suffixes {
			texts = append(texts, prefix+"-"+x, prefix+x, x+prefix)
		}
		sort.Strings(texts)
		held := make([]pde.Value, len(texts))
		for n := range texts {
			k := n
			if reverseIntern {
				k = len(texts) - 1 - n
			}
			held[k] = pde.Const(texts[k])
		}
		// One triangle E(a,b), E(b,c), E(a,c) per three consecutive
		// texts: example1's st-tgd derives H(a,c) from it and its ts-tgd
		// holds.
		triangles := len(texts) / 3
		build := func(forward bool) *pde.Instance {
			inst := pde.NewInstance()
			for n := 0; n < triangles; n++ {
				g := n
				if !forward {
					g = triangles - 1 - n
				}
				a, b, c := held[3*g], held[3*g+1], held[3*g+2]
				inst.Add("E", a, b)
				inst.Add("E", a, c)
				inst.Add("E", b, c)
			}
			return inst
		}
		fwd, bwd := build(true), build(false)

		// Facts() keeps insertion order, which is text order here.
		var facts strings.Builder
		for _, f := range fwd.Facts() {
			facts.WriteString(f.String() + "\n")
		}
		if !sort.StringsAreSorted(strings.Split(strings.TrimSuffix(facts.String(), "\n"), "\n")) {
			t.Fatalf("Facts() not in text order:\n%s", facts.String())
		}
		formatted := pde.FormatInstance(fwd)
		if pde.FormatInstance(bwd) != formatted {
			t.Fatal("FormatInstance depends on insertion order")
		}
		if !sort.StringsAreSorted(strings.Split(formatted, "\n")) {
			t.Fatalf("FormatInstance not sorted by text:\n%s", formatted)
		}
		parsed := mustInstance(t, formatted)
		if pde.FormatInstance(parsed) != formatted {
			t.Fatal("FormatInstance does not round-trip through ParseInstance")
		}
		want := make([]string, triangles)
		for g := range want {
			want[g] = fmt.Sprintf("(%s, %s)", texts[3*g], texts[3*g+2])
		}
		var answers string
		for name, inst := range map[string]*pde.Instance{"forward": fwd, "backward": bwd, "parsed": parsed} {
			res, err := pde.CertainAnswers(s, inst, pde.NewInstance(), queries[0])
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(res.Answers))
			for k, a := range res.Answers {
				got[k] = a.String()
			}
			if answers = strings.Join(got, "\n"); answers != strings.Join(want, "\n") {
				t.Fatalf("%s: certain answers\n%s\nwant, sorted by text,\n%s", name, answers, strings.Join(want, "\n"))
			}
		}

		// The generic solver tries candidate values in Value.Less order,
		// so its witness maps each group's null to the group's smallest
		// E-successor by text.
		src, wantWitness := pde.NewInstance(), pde.NewInstance()
		for g := 0; g < triangles; g++ {
			a, b, c := held[3*g], held[3*g+1], held[3*g+2]
			src.Add("D", a)
			src.Add("E", a, c)
			src.Add("E", a, b)
			wantWitness.Add("H", a, b)
		}
		found, err := pde.FindSolution(pick, src, pde.NewInstance(), pde.Options{ForceGeneric: true})
		if err != nil || !found.Exists || found.Strategy != pde.StrategyGeneric {
			t.Fatalf("generic witness: exists=%v strategy=%s err=%v", found.Exists, found.Strategy, err)
		}
		witness := pde.FormatInstance(found.Solution)
		if want := pde.FormatInstance(wantWitness); witness != want {
			t.Fatalf("generic witness\n%s\nwant the smallest choices by text\n%s", witness, want)
		}

		mask := func(x string) string { return strings.ReplaceAll(x, prefix, "P") }
		return []string{mask(facts.String()), mask(formatted), mask(answers), mask(witness)}
	}
	reversed, forward := outputs(true), outputs(false)
	for k, what := range []string{"Facts()", "FormatInstance", "certain answers", "generic witness"} {
		if reversed[k] != forward[k] {
			t.Errorf("%s depends on intern order:\n%s\nvs\n%s", what, reversed[k], forward[k])
		}
	}
}
