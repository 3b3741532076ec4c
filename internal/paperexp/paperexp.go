// Package paperexp is the one registry of the paper's experiments: each
// EXP-* is declared once, with a run that returns its table and a claim
// that checks the table against what the paper says. `go test` asserts
// every claim (TestPaperClaims), `pdxbench` prints every table with its
// claim verdict, and the root BenchmarkPaper times every run.
package paperexp

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
)

// Experiment is one reproduced paper artifact.
type Experiment struct {
	// ID is "EXP-<name>", stable across PRs: EXPERIMENTS.md, DESIGN.md
	// and `pdxbench -exp` refer to it.
	ID    string
	Title string
	// Run regenerates the table. It returns an error only when the
	// experiment cannot run, never for a result that contradicts the
	// paper: judging the result is Claim's job.
	Run func() (*Table, error)
	// Claim checks the table against the paper. It reads only
	// deterministic columns, never a time column.
	Claim func(*Table) error
}

// Table is an experiment's result: an optional note line, a header, and
// rows whose cells keep their Go types, so claims compare values
// rather than parse text.
type Table struct {
	Note   string
	Header []string
	Rows   [][]any
}

// add appends one row; its cells follow the header's order.
func (t *Table) add(cells ...any) { t.Rows = append(t.Rows, cells) }

// Cell returns row r's cell under the column named h. A name missing
// from the header is a bug in the registry, so it panics.
func (t *Table) Cell(r int, h string) any {
	c := slices.Index(t.Header, h)
	if c < 0 {
		panic(fmt.Sprintf("paperexp: no column %q in %q", h, t.Header))
	}
	return t.Rows[r][c]
}

// Int returns row r's int cell under column h.
func (t *Table) Int(r int, h string) int { return t.Cell(r, h).(int) }

// Write prints the note line, then the header and rows aligned in
// columns.
func (t *Table) Write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if t.Note != "" {
		fmt.Fprintln(tw, t.Note) // no tab, so no column
	}
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for c, v := range row {
			cells[c] = fmt.Sprint(v)
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	return tw.Flush()
}
