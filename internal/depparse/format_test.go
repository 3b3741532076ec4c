package depparse

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rel"
)

// formatInstanceByLines is the string-per-line FormatInstance: one
// string per fact, sort.Strings, join. FormatInstance must stay byte
// identical to it.
func formatInstanceByLines(inst *rel.Instance) string {
	var lines []string
	for _, f := range inst.Facts() {
		var b strings.Builder
		b.WriteString(f.Rel)
		b.WriteByte('(')
		for i, v := range f.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			if v.IsNull() {
				fmt.Fprintf(&b, "_%d", v.NullID())
			} else {
				b.WriteString(formatConstByString(v.ConstText()))
			}
		}
		b.WriteString(").")
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// formatConstByString is the string-returning constant quoting of
// formatInstanceByLines.
func formatConstByString(s string) string {
	if s == "" {
		return "''"
	}
	plain := true
	for i := 0; i < len(s); i++ {
		if !isIdentByte(s[i]) {
			plain = false
			break
		}
	}
	if plain && isIdentStart(s[0]) {
		if _, isNull := nullLabel(s); !isNull && s != "exists" {
			return s
		}
	}
	if plain && s[0] >= '0' && s[0] <= '9' {
		return s
	}
	return "'" + s + "'"
}

// TestFormatInstanceMatchesLineSort compares FormatInstance with the
// string-per-line rendering on random instances whose constants cover
// every quoting rule (bare, quoted, digit-led, empty, null-like,
// exists) and whose lines share long prefixes.
func TestFormatInstanceMatchesLineSort(t *testing.T) {
	consts := []string{"a", "b", "ab", "a b", "1x", "42", "0", "", "_3", "_", "exists", "existsx", "Z", "z9", "'", "-", "é"}
	rels := []struct {
		name  string
		arity int
	}{{"E", 2}, {"E2", 1}, {"Ea", 3}, {"P", 2}, {"Q", 0}}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		inst := rel.NewInstance()
		for k := rng.Intn(40); k > 0; k-- {
			r := rels[rng.Intn(len(rels))]
			t := make(rel.Tuple, r.arity)
			for i := range t {
				if rng.Intn(4) == 0 {
					t[i] = rel.Null(1 + rng.Intn(12))
				} else {
					t[i] = rel.Const(consts[rng.Intn(len(consts))])
				}
			}
			inst.AddTuple(r.name, t)
		}
		if got, want := FormatInstance(inst), formatInstanceByLines(inst); got != want {
			t.Fatalf("trial %d: FormatInstance\n%s\nwant\n%s", trial, got, want)
		}
	}
	empty := rel.NewInstance()
	if got := FormatInstance(empty); got != "" {
		t.Fatalf("empty instance formats as %q", got)
	}
	// pdxd formats the empty side of every request that leaves one out.
	if n := testing.AllocsPerRun(10, func() { FormatInstance(empty) }); n != 0 {
		t.Fatalf("formatting an empty instance allocates %v times", n)
	}
}
