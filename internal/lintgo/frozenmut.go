package lintgo

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// frozenmut enforces the freeze-after-build discipline on
// rel.Instance: once an instance is frozen it is shared freely across
// goroutines, so any mutating call after Freeze() panics at run time —
// but only on the code path that actually executes. The analyzer flags
// two shapes statically:
//
//   - a mutating method (Add, AddTuple, AddOwnedTuple, AddFact, AddAll,
//     Reserve, ShareRelation, RemoveLastTuple, MergeValue) called on a receiver that
//     was frozen earlier in the same function, unless the variable was
//     reassigned (e.g. to a Clone()) in between;
//   - a mutating method called inside a go-statement closure on an
//     instance declared outside the closure: even an unfrozen instance
//     must not be mutated from another goroutine.
var frozenmutAnalyzer = &Analyzer{
	Name: "frozenmut",
	Doc:  "no mutation of frozen or goroutine-shared rel.Instance values",
	Run:  runFrozenmut,
}

// instanceMutators are the rel.Instance methods that panic on a frozen
// receiver (see rel.Instance.mutable).
var instanceMutators = map[string]bool{
	"Add":             true,
	"AddTuple":        true,
	"AddOwnedTuple":   true,
	"AddFact":         true,
	"AddAll":          true,
	"Reserve":         true,
	"ShareRelation":   true,
	"RemoveLastTuple": true,
	"MergeValue":      true,
}

const relPkgPath = "repro/internal/rel"

// instanceMethodCall reports whether call is receiver.<name>() on a
// rel.Instance and returns the receiver expression.
func instanceMethodCall(info *types.Info, call *ast.CallExpr, name string) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != relPkgPath {
		return nil, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !namedTypeIs(recv.Type(), relPkgPath, "Instance") {
		return nil, false
	}
	return sel.X, true
}

// mutatorCall reports whether call is a mutating rel.Instance method
// and returns the receiver expression and method name.
func mutatorCall(info *types.Info, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !instanceMutators[sel.Sel.Name] {
		return nil, "", false
	}
	if recv, ok := instanceMethodCall(info, call, sel.Sel.Name); ok {
		return recv, sel.Sel.Name, true
	}
	return nil, "", false
}

// frozenEvent is one freeze / mutate / reassign occurrence, replayed
// in source order to decide which mutations hit a frozen receiver.
type frozenEvent struct {
	pos  token.Pos
	kind int // 0 freeze, 1 mutate, 2 reassign
	key  string
	name string // mutator method, for the report
}

func runFrozenmut(p *Pass) {
	forEachFunc(p, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		checkFreezeThenMutate(p, body)
	})
	checkGoClosures(p)
}

// checkFreezeThenMutate replays freeze/mutate/reassign events of one
// function body in source order. Receivers are keyed by their printed
// expression (inst, s.inst, ...), which tracks the common shapes
// without alias analysis.
func checkFreezeThenMutate(p *Pass, body *ast.BlockStmt) {
	var events []frozenEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, ok := instanceMethodCall(p.Info, n, "Freeze"); ok {
				events = append(events, frozenEvent{pos: n.Pos(), kind: 0, key: types.ExprString(recv)})
			} else if recv, name, ok := mutatorCall(p.Info, n); ok {
				events = append(events, frozenEvent{pos: n.Pos(), kind: 1, key: types.ExprString(recv), name: name})
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				events = append(events, frozenEvent{pos: n.Pos(), kind: 2, key: types.ExprString(lhs)})
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	frozen := make(map[string]token.Pos)
	for _, e := range events {
		switch e.kind {
		case 0:
			frozen[e.key] = e.pos
		case 1:
			if at, ok := frozen[e.key]; ok {
				p.Reportf(e.pos, "%s called on %s, frozen at line %d; mutating a frozen instance panics — Clone() it first",
					e.name, e.key, p.Fset.Position(at).Line)
			}
		case 2:
			delete(frozen, e.key)
		}
	}
}

// checkGoClosures flags instance mutations inside closures run by go
// statements when the instance is declared outside the closure.
func checkGoClosures(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
					checkClosureMutations(p, lit)
				}
				return false
			}
			return true
		})
	}
}

func checkClosureMutations(p *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := mutatorCall(p.Info, call)
		if !ok {
			return true
		}
		root := rootIdentOf(recv)
		if root == nil {
			return true
		}
		obj := p.Info.Uses[root]
		if obj == nil || declaredWithin(obj, lit) {
			return true
		}
		p.Reportf(call.Pos(), "%s mutates captured instance %s inside a goroutine; instances shared with goroutines must be frozen, and frozen instances must not be mutated",
			name, types.ExprString(recv))
		return true
	})
}
