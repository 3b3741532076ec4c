package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/paperexp"
)

// TestListPrintsRegistryInOrder pins the experiment IDs and their
// order: EXPERIMENTS.md, DESIGN.md and CI scripts name them.
func TestListPrintsRegistryInOrder(t *testing.T) {
	want := []string{
		"EXP-EX1", "EXP-MARK", "EXP-T1", "EXP-T3", "EXP-T3Q", "EXP-T4-LAV",
		"EXP-T4-FULL", "EXP-T5", "EXP-T6", "EXP-L1", "EXP-L2", "EXP-WA",
		"EXP-RANK", "EXP-EGD", "EXP-FULLT", "EXP-3COL", "EXP-DE",
		"EXP-CORE", "EXP-REPAIR", "EXP-PDMS", "EXP-MULTI", "EXP-CACHE",
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, paperexp.Experiments(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), &stdout)
	}
	for k, line := range lines {
		if id := strings.Fields(line)[0]; id != want[k] {
			t.Errorf("line %d lists %s, want %s", k+1, id, want[k])
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "EXP-NOPE"}, paperexp.Experiments(), &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "EXP-NOPE"`) || stdout.Len() != 0 {
		t.Errorf("stdout %q, stderr %q", &stdout, &stderr)
	}
}

// TestFailedClaimPrintsTableAndExits1: a failing claim does not hide
// its table or stop the experiments after it.
func TestFailedClaimPrintsTableAndExits1(t *testing.T) {
	table := func() (*paperexp.Table, error) {
		return &paperexp.Table{Header: []string{"x", "y"}, Rows: [][]any{{1, 2}}}, nil
	}
	exps := []paperexp.Experiment{
		{ID: "EXP-BAD", Title: "bad", Run: table, Claim: func(*paperexp.Table) error { return errors.New("x != y") }},
		{ID: "EXP-GOOD", Title: "good", Run: table, Claim: func(*paperexp.Table) error { return nil }},
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, exps, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	want := "== EXP-BAD — bad ==\nx  y\n1  2\nclaim: FAILED: x != y\n\n" +
		"== EXP-GOOD — good ==\nx  y\n1  2\nclaim: ok\n\n"
	if stdout.String() != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", &stdout, want)
	}
}
