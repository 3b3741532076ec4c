package perfsuite

import (
	"errors"
	"strings"
	"testing"
)

// TestCases runs every case's setup and a single operation with all of
// its checks, and pins that names are non-empty and unique: they are the
// key bench-compare joins on, so a duplicate would silently overwrite
// another case's record.
func TestCases(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if c.Name == "" || seen[c.Name] {
			t.Fatalf("case name %q is empty or duplicated", c.Name)
		}
		seen[c.Name] = true
		t.Run(c.Name, func(t *testing.T) {
			op, err := c.Setup()
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			if _, err := op(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunReturnsCaseErrors: a failing setup or operation comes back as
// an error naming the case, never as a zero-ns record.
func TestRunReturnsCaseErrors(t *testing.T) {
	boom := errors.New("boom")
	failingOp := func() (Op, error) {
		return func() (Counters, error) { return Counters{}, boom }, nil
	}
	failingSetup := func() (Op, error) { return nil, boom }
	for _, c := range []Case{{"failing-op", failingOp}, {"failing-setup", failingSetup}} {
		rec, err := Run(c)
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), c.Name+": ") {
			t.Errorf("Run(%s) = %+v, %v; want the case's error", c.Name, rec, err)
		}
	}
}
