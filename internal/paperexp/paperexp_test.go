package paperexp

import (
	"bytes"
	"testing"

	"repro/internal/rel"
)

// corruptions flips one value each claim reads, so TestPaperClaims can
// show every claim is able to fail.
var corruptions = map[string]func(t *Table){
	"EXP-EX1":     func(t *Table) { t.Rows[2][3] = false },      // 2nd triangle solution rejected
	"EXP-MARK":    func(t *Table) { t.Rows[1][6] = true },       // clique setting in C_tract
	"EXP-T1":      func(t *Table) { t.Rows[0][5] = false },      // witness not a solution
	"EXP-T3":      func(t *Table) { t.Rows[5][4] = true },       // SOL on a clique-free graph
	"EXP-T3Q":     func(t *Table) { t.Rows[1][3] = false },      // P4 answer not certain
	"EXP-T4-LAV":  func(t *Table) { t.Rows[1][2] = true },       // unsolvable instance accepted
	"EXP-T4-FULL": func(t *Table) { t.Rows[0][2] = false },      // solvable instance rejected
	"EXP-T5":      func(t *Table) { t.Rows[2][3] = 1 },          // one disagreement
	"EXP-T6":      func(t *Table) { t.Rows[7][4] = 12 },         // clique nulls stop growing
	"EXP-L1":      func(t *Table) { t.Rows[4][2] = 401 },        // one step too many
	"EXP-L2":      func(t *Table) { t.Rows[0][2] = 121 },        // extracted larger than bloated
	"EXP-WA":      func(t *Table) { t.Rows[1][2] = "fixpoint" }, // cyclic chase terminates
	"EXP-RANK":    func(t *Table) { t.Rows[4][1] = 1 },          // cyclic family ranked
	"EXP-EGD":     func(t *Table) { t.Rows[1][3] = true },       // P4 has no triangle
	"EXP-FULLT":   func(t *Table) { t.Rows[3][3] = false },      // K4 has a 4-clique
	"EXP-3COL":    func(t *Table) { t.Rows[1][2] = true },       // K4 is not 3-colorable
	"EXP-DE":      func(t *Table) { t.Rows[0][2] = 19 },         // one data exchange unsolvable
	"EXP-CORE":    func(t *Table) { t.Rows[0][3] = 40 },         // core larger than restricted
	"EXP-REPAIR":  func(t *Table) { t.Rows[1][4] = 0 },          // repair keeps the dirty fact
	"EXP-PDMS":    func(t *Table) { t.Rows[0][1] = 19 },         // one disagreement
	"EXP-MULTI":   func(t *Table) { t.Rows[0][2] = 14 },         // one disagreement
	"EXP-CACHE":   func(t *Table) { t.Rows[2][3] = 415 },        // resumed fixpoint diverges
}

// TestPaperClaims runs every experiment and asserts its claim, then
// corrupts one value the claim reads and asserts the claim fails.
func TestPaperClaims(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tab, err := e.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			var out bytes.Buffer
			if err := tab.Write(&out); err != nil {
				t.Fatal(err)
			}
			if err := e.Claim(tab); err != nil {
				t.Fatalf("claim: %v\n%s", err, &out)
			}
			corrupt, ok := corruptions[e.ID]
			if !ok {
				t.Fatal("no corruption declared")
			}
			corrupt(tab)
			if e.Claim(tab) == nil {
				t.Errorf("the claim holds on a corrupted table:\n%s", &out)
			}
		})
	}
}

// TestMultiNegativeChecked pins EXP-MULTI's no-solution branch: it
// accepts a no-solution verdict only when the Σst-forced target is not
// a multi-PDE solution.
func TestMultiNegativeChecked(t *testing.T) {
	m := multiPeers()
	for _, c := range []struct {
		name, e, f string
		agrees     bool
	}{
		// The 2-path forces H(a,c), which neither E nor F holds.
		{"path", "E(a,b). E(b,c).", "", true},
		// The forced {H(a,a)} is a solution, refuting the verdict.
		{"self-loop", "E(a,a).", "F(a,a).", false},
	} {
		got, err := multiAgrees(m, []*rel.Instance{mustParseInstance(c.e), mustParseInstance(c.f)}, false, nil)
		if err != nil || got != c.agrees {
			t.Errorf("%s: a no-solution verdict agrees = %v, %v; want %v", c.name, got, err, c.agrees)
		}
	}
}
