package depparse

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/rel"
)

// ParseInstance parses an instance from its text form: one fact per
// line, optionally terminated by '.', with '#' comments:
//
//	E(a, b).
//	E(b, 'big city')
//	H(_1, c)    # _N is the labeled null with label N
//
// Unlike in dependencies, bare identifiers in instance files denote
// constants; labeled nulls are written _N with a numeric label.
func ParseInstance(src string) (*rel.Instance, error) {
	inst := rel.NewInstance()
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n := lineNo + 1
		p := newPeeker(newLexer(line, n))
		for {
			t, err := p.peek()
			if err != nil {
				return nil, err
			}
			if t.kind == tokEOF {
				break
			}
			name, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			tuple, err := parseFactArgs(p, n)
			if err != nil {
				return nil, err
			}
			if existing := inst.Relation(name.text); existing != nil && existing.Arity() != len(tuple) {
				return nil, posErrorf(n, name.pos+1, "relation %s used with arity %d, previously %d", name.text, len(tuple), existing.Arity())
			}
			inst.AddOwnedTuple(name.text, tuple)
			sep, err := p.peek()
			if err != nil {
				return nil, err
			}
			if sep.kind == tokPeriod {
				p.next() //nolint:errcheck // peeked
			}
		}
	}
	return inst, nil
}

func parseFactArgs(p *peeker, line int) (rel.Tuple, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var tuple rel.Tuple
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokRParen {
		p.next() //nolint:errcheck // peeked
		return tuple, nil
	}
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		switch t.kind {
		case tokIdent:
			if id, ok := nullLabel(t.text); ok {
				tuple = append(tuple, rel.Null(id))
			} else {
				tuple = append(tuple, rel.Const(t.text))
			}
		case tokQuoted, tokNumber:
			tuple = append(tuple, rel.Const(t.text))
		default:
			return nil, posErrorf(line, t.pos+1, "expected value, got %q", t.text)
		}
		sep, err := p.next()
		if err != nil {
			return nil, err
		}
		if sep.kind == tokRParen {
			return tuple, nil
		}
		if sep.kind != tokComma {
			return nil, posErrorf(line, sep.pos+1, "expected ',' or ')', got %q", sep.text)
		}
	}
}

func nullLabel(text string) (int, bool) {
	if !strings.HasPrefix(text, "_") || len(text) == 1 {
		return 0, false
	}
	id, err := strconv.Atoi(text[1:])
	if err != nil {
		return 0, false
	}
	return id, true
}

// FormatInstance renders an instance in the ParseInstance format, one
// fact per line in deterministic order.
func FormatInstance(inst *rel.Instance) string {
	facts := inst.Facts()
	lines := make([]string, 0, len(facts))
	for _, f := range facts {
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
				b.WriteString(formatConst(v.ConstText()))
			}
		}
		b.WriteString(").")
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func formatConst(s string) string {
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

// ParseQueries parses a query file: one conjunctive query per line in
// rule syntax, with '#' comments. Lines sharing a head name form a
// union of conjunctive queries.
//
//	q(x, y) :- H(x, y), H(y, x)
//	q(x, y) :- G(x, y)
//	boolq :- P(x, x, x, x)
//
// It returns the queries grouped by name, in file order.
func ParseQueries(src string) ([]certain.UCQ, error) {
	groups := make(map[string]certain.UCQ)
	var order []string
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n := lineNo + 1
		q, err := parseQueryLine(line, n)
		if err != nil {
			return nil, err
		}
		if prev, seen := groups[q.Name]; !seen {
			order = append(order, q.Name)
		} else if len(q.Head) != len(prev[0].Head) {
			// Report at the offending disjunct, not the first one.
			return nil, posErrorf(n, 0, "query %s: disjuncts have different head arities", q.Name)
		}
		groups[q.Name] = append(groups[q.Name], q)
	}
	out := make([]certain.UCQ, 0, len(order))
	for _, name := range order {
		out = append(out, groups[name])
	}
	return out, nil
}

func parseQueryLine(line string, n int) (certain.CQ, error) {
	p := newPeeker(newLexer(line, n))
	name, err := p.expect(tokIdent)
	if err != nil {
		return certain.CQ{}, err
	}
	q := certain.CQ{Name: name.text}
	t, err := p.peek()
	if err != nil {
		return certain.CQ{}, err
	}
	if t.kind == tokLParen {
		p.next() //nolint:errcheck // peeked
		for {
			v, err := p.expect(tokIdent)
			if err != nil {
				return certain.CQ{}, err
			}
			q.Head = append(q.Head, v.text)
			sep, err := p.next()
			if err != nil {
				return certain.CQ{}, err
			}
			if sep.kind == tokRParen {
				break
			}
			if sep.kind != tokComma {
				return certain.CQ{}, posErrorf(n, sep.pos+1, "expected ',' or ')' in query head, got %q", sep.text)
			}
		}
	}
	if _, err := p.expect(tokTurnstile); err != nil {
		return certain.CQ{}, err
	}
	body, err := parseAtomList(p)
	if err != nil {
		return certain.CQ{}, err
	}
	if _, err := p.expect(tokEOF); err != nil {
		return certain.CQ{}, err
	}
	q.Body = body
	return q, nil
}

// FormatSetting renders a setting in the ParseSetting format.
func FormatSetting(s *core.Setting) string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "setting %s\n", s.Name)
	}
	if s.Source.Len() > 0 {
		fmt.Fprintf(&b, "source %s\n", s.Source)
	}
	if s.Target.Len() > 0 {
		fmt.Fprintf(&b, "target %s\n", s.Target)
	}
	for _, d := range s.ST {
		fmt.Fprintf(&b, "st: %s\n", d)
	}
	for _, d := range s.TS {
		fmt.Fprintf(&b, "ts: %s\n", d)
	}
	for _, d := range s.TSDisj {
		fmt.Fprintf(&b, "tsd: %s\n", formatDisjuncts(d))
	}
	for _, d := range s.T {
		fmt.Fprintf(&b, "t: %s\n", d)
	}
	return b.String()
}

// formatDisjuncts renders a disjunctive tgd without the parentheses the
// dep package adds around disjuncts (the parser's grammar has none).
func formatDisjuncts(d dep.DisjunctiveTGD) string {
	var b strings.Builder
	for i, a := range d.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteString(" -> ")
	for i, disj := range d.Disjuncts {
		if i > 0 {
			b.WriteString(" | ")
		}
		for j, a := range disj {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
	}
	return b.String()
}
