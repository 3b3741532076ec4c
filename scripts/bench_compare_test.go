package main

import (
	"os"
	"path/filepath"
	"testing"
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
