package depparse

import (
	"bytes"
	"fmt"
	"slices"
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
// fact per line in deterministic order: the lines sorted bytewise.
// Every line is rendered into one buffer and the sort permutes line
// offsets, so the instance costs one buffer and one output string
// rather than a string per fact.
func FormatInstance(inst *rel.Instance) string {
	n := inst.NumFacts()
	if n == 0 {
		return "" // allocation-free: every request with an empty side formats one
	}
	var buf []byte
	// starts[k] is the offset of line k in buf; the final entry is
	// len(buf), so line k is buf[starts[k]:starts[k+1]].
	starts := make([]int, 0, n+1)
	for _, name := range inst.RelationNames() {
		r := inst.Relation(name)
		for i := 0; i < r.Len(); i++ {
			if !r.Live(i) {
				continue
			}
			starts = append(starts, len(buf))
			buf = appendFact(buf, name, r.TupleAt(i))
		}
	}
	starts = append(starts, len(buf))
	line := func(k int) []byte { return buf[starts[k]:starts[k+1]] }
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(line(a), line(b)) })
	var out strings.Builder
	out.Grow(len(buf) + n - 1)
	for i, k := range order {
		if i > 0 {
			out.WriteByte('\n')
		}
		out.Write(line(k))
	}
	return out.String()
}

// appendFact appends the line of the fact name(t), without newline.
func appendFact(buf []byte, name string, t rel.Tuple) []byte {
	buf = append(buf, name...)
	buf = append(buf, '(')
	for i, v := range t {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		if v.IsNull() {
			buf = append(buf, '_')
			buf = strconv.AppendInt(buf, int64(v.NullID()), 10)
		} else {
			buf = appendConst(buf, v.ConstText())
		}
	}
	return append(buf, ")."...)
}

// appendConst appends constant s as an instance-file value: bare when
// it lexes back as the same constant (an identifier other than a null
// label or the exists keyword, or a digit-led word), quoted otherwise.
func appendConst(buf []byte, s string) []byte {
	if s == "" {
		return append(buf, "''"...)
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
			return append(buf, s...)
		}
	}
	if plain && s[0] >= '0' && s[0] <= '9' {
		return append(buf, s...)
	}
	buf = append(buf, '\'')
	buf = append(buf, s...)
	return append(buf, '\'')
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
