package datalog_test

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/dep"
	"repro/internal/rel"
)

// fuzzBytes hands out small choices from the fuzz input, reading 0 once
// the input is used up.
type fuzzBytes []byte

func (b *fuzzBytes) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

var (
	fuzzRels   = []string{"E", "T", "U"}
	fuzzVars   = []string{"x", "y", "z"}
	fuzzConsts = []string{"a", "b", "c"}
)

// fuzzProgram builds a safe program of 1–3 rules, each a binary head
// over 1–3 binary body atoms on E, T and U. Body terms come from three
// variables and three constants, so variables repeat within and across
// atoms; a head term is a body variable or a constant.
func fuzzProgram(in *fuzzBytes) *datalog.Program {
	p := &datalog.Program{}
	for k := 1 + in.pick(3); k > 0; k-- {
		var body []dep.Atom
		var vars []string
		seen := map[string]bool{}
		for n := 1 + in.pick(3); n > 0; n-- {
			args := make([]dep.Term, 2)
			for i := range args {
				if c := in.pick(4); c == 3 {
					args[i] = dep.Cst(fuzzConsts[in.pick(len(fuzzConsts))])
				} else {
					v := fuzzVars[c]
					args[i] = dep.Var(v)
					if !seen[v] {
						seen[v] = true
						vars = append(vars, v)
					}
				}
			}
			body = append(body, dep.NewAtom(fuzzRels[in.pick(len(fuzzRels))], args...))
		}
		head := make([]dep.Term, 2)
		for i := range head {
			if len(vars) == 0 || in.pick(4) == 3 {
				head[i] = dep.Cst(fuzzConsts[in.pick(len(fuzzConsts))])
			} else {
				head[i] = dep.Var(vars[in.pick(len(vars))])
			}
		}
		p.Rules = append(p.Rules, datalog.Rule{
			Label: "r",
			Head:  dep.NewAtom(fuzzRels[in.pick(len(fuzzRels))], head...),
			Body:  body,
		})
	}
	return p
}

// FuzzEvalMatchesNaive: on random safe programs over a small random
// EDB, Eval computes the same least fixpoint as the naive reference.
func FuzzEvalMatchesNaive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 0, 1, 1, 2, 0, 1, 9, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{2, 2, 3, 0, 0, 3, 1, 1, 1, 1, 2, 0, 0, 2, 1, 5, 7, 11, 13, 17, 19, 23})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		p := fuzzProgram(&in)
		edb := rel.NewInstance()
		for n := in.pick(10); n > 0; n-- {
			edb.Add(fuzzRels[in.pick(len(fuzzRels))],
				rel.Const(fuzzConsts[in.pick(len(fuzzConsts))]),
				rel.Const(fuzzConsts[in.pick(len(fuzzConsts))]))
		}
		edb.Freeze()
		got, err := p.Eval(edb, datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Naive(edb, datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("program\n%v\nover\n%s\nEval:\n%s\nNaive:\n%s", p.Rules, edb, got, want)
		}
	})
}
