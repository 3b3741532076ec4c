package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/perfsuite"
)

// TestLoadRejectsNonPositiveNs: a record with ns_per_op <= 0 is what a
// failed benchmark run leaves behind, and it would read as a −100%
// speedup, so load refuses the file instead of letting it pass the gate.
func TestLoadRejectsNonPositiveNs(t *testing.T) {
	dir := t.TempDir()
	for name, ns := range map[string]string{"zero": "0", "negative": "-5", "ok": "1200"} {
		path := filepath.Join(dir, name+".json")
		body := `{"go_version":"go1.24.0","gomaxprocs":1,"num_cpu":1,"benchmarks":[` +
			`{"name":"tractable-lav/n=1600/delta","ns_per_op":1000,"allocs_per_op":1,"bytes_per_op":1},` +
			`{"name":"certain-warm/n=1600","ns_per_op":` + ns + `,"allocs_per_op":1,"bytes_per_op":1}]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := load(path)
		if (err != nil) != (name != "ok") {
			t.Errorf("load(%s record) error = %v", name, err)
		}
	}
}

// TestLatestBaseline pins the auto-selection rule CI relies on: the
// numerically highest BENCH_PR<k>.json wins, everything else in the
// repository root is ignored.
func TestLatestBaseline(t *testing.T) {
	for _, tc := range []struct {
		names  []string
		want   string
		wantOK bool
	}{
		// Numeric, not lexicographic: PR10 beats PR9.
		{[]string{"BENCH_PR4.json", "BENCH_PR10.json", "BENCH_PR9.json"}, "BENCH_PR10.json", true},
		{[]string{"BENCH_PR9.json", "BENCH_PR8.json"}, "BENCH_PR9.json", true},
		{[]string{"BENCH_PR7.json"}, "BENCH_PR7.json", true},
		// Near-miss names never match: wrong case, missing number,
		// wrong extension, extra prefix or suffix.
		{[]string{
			"bench_pr5.json", "BENCH_PRx.json", "BENCH_PR.json",
			"BENCH_PR5.json.bak", "OLD_BENCH_PR5.json", "BENCH_PR5.txt",
			"README.md", "go.mod",
		}, "", false},
		// Matches mixed into noise still win.
		{[]string{"README.md", "BENCH_PR2.json", "scripts", "BENCH_PR11.json", "BENCH_PR3.json.orig"}, "BENCH_PR11.json", true},
		{nil, "", false},
	} {
		got, ok := latestBaseline(tc.names)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("latestBaseline(%v) = %q, %v; want %q, %v", tc.names, got, ok, tc.want, tc.wantOK)
		}
	}
}

// TestCompareRetiredRecordDoesNotGate: a record only the baseline has is
// reported as retired and never counts as a regression, while a record
// in both runs beyond the threshold does.
func TestCompareRetiredRecordDoesNotGate(t *testing.T) {
	base := &perfsuite.Report{Benchmarks: []perfsuite.Record{
		{Name: "restricted-chain/depth=3/n=100/delta", NsPerOp: 1000},
		{Name: "oblivious-chain/depth=3/n=100/delta", NsPerOp: 1000},
		{Name: "certain-warm/n=1600", NsPerOp: 1000},
	}}
	cur := &perfsuite.Report{Benchmarks: []perfsuite.Record{
		{Name: "restricted-chain/depth=3/n=100/delta", NsPerOp: 1100},
		{Name: "certain-warm/n=1600", NsPerOp: 1100},
	}}
	var out strings.Builder
	regressions, retired := compare(&out, base, cur, 0.25)
	if len(regressions) != 0 {
		t.Errorf("regressions = %q, want none", regressions)
	}
	if want := []string{"oblivious-chain/depth=3/n=100/delta"}; !slices.Equal(retired, want) {
		t.Errorf("retired = %q, want %q", retired, want)
	}
	if !strings.Contains(out.String(), "oblivious-chain/depth=3/n=100/delta") ||
		!strings.Contains(out.String(), "retired (baseline only)") {
		t.Errorf("retired record not reported:\n%s", out.String())
	}

	cur.Benchmarks[1].NsPerOp = 1300
	regressions, retired = compare(io.Discard, base, cur, 0.25)
	if len(regressions) != 1 || !strings.HasPrefix(regressions[0], "certain-warm/n=1600:") {
		t.Errorf("regressions = %q, want certain-warm/n=1600 only", regressions)
	}
	if len(retired) != 1 {
		t.Errorf("retired = %q, want one record", retired)
	}
}

// TestCompareGatesAllocs: a record whose allocs/op rose past 1% + 8 of
// the baseline's is a regression even when its ns/op did not move, and
// a rise within that run-to-run spread is not.
func TestCompareGatesAllocs(t *testing.T) {
	base := &perfsuite.Report{Benchmarks: []perfsuite.Record{
		{Name: "clique/k=4/generic", NsPerOp: 1000, AllocsPerOp: 184159},
		{Name: "keyed-chase/n=400/uf", NsPerOp: 1000, AllocsPerOp: 175067},
		{Name: "tractable-lav/n=1600/warm", NsPerOp: 1000, AllocsPerOp: 1},
	}}
	cur := &perfsuite.Report{Benchmarks: []perfsuite.Record{
		{Name: "clique/k=4/generic", NsPerOp: 1000, AllocsPerOp: 186009},
		{Name: "keyed-chase/n=400/uf", NsPerOp: 900, AllocsPerOp: 175072},
		{Name: "tractable-lav/n=1600/warm", NsPerOp: 1000, AllocsPerOp: 9},
	}}
	var out strings.Builder
	regressions, _ := compare(&out, base, cur, 0.25)
	if len(regressions) != 1 || !strings.HasPrefix(regressions[0], "clique/k=4/generic:") ||
		!strings.Contains(regressions[0], "allocs/op") {
		t.Errorf("regressions = %q, want clique/k=4/generic allocs/op only", regressions)
	}

	cur.Benchmarks[0].AllocsPerOp = 186008 // 184159 × 1.01 + 8 = 186008.59
	if regressions, _ = compare(io.Discard, base, cur, 0.25); len(regressions) != 0 {
		t.Errorf("regressions = %q, want none within the allocs spread", regressions)
	}
}
