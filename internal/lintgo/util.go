package lintgo

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the called function or method of a call
// expression to its types.Func, or nil (built-ins, function values,
// conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isFuncNamed reports whether fn is the function or method
// pkgPath.name (for methods, name is just the method name and the
// receiver's package is matched).
func isFuncNamed(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// objectIs reports whether obj is the package-level object
// pkgPath.name.
func objectIs(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// usedObject resolves an identifier or selector expression to the
// object it refers to, or nil.
func usedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// namedTypeIs reports whether t (or the pointee, if a pointer) is the
// named type pkgPath.name.
func namedTypeIs(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// rootIdentOf unwraps selectors, indexes, stars, and parens down to
// the base identifier of an expression (x in x.a.b[i]), or nil.
func rootIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		default:
			return nil
		}
	}
}

// declaredWithin reports whether the object's declaration position
// lies within the node's source range.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() != 0 && n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

// mentionsObject reports whether the expression tree references obj.
func mentionsObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// looksLikeSort reports whether a call plausibly establishes a
// deterministic order: sort.* and slices.Sort* calls, plus any
// function whose name contains "sort" (SortAnswers, sortDiagnostics —
// the codebase's local sorting helpers).
func looksLikeSort(info *types.Info, call *ast.CallExpr) bool {
	if fn := calleeFunc(info, call); fn != nil {
		if fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort":
				return true
			case "slices":
				return strings.HasPrefix(fn.Name(), "Sort") || fn.Name() == "SortFunc" || fn.Name() == "SortStableFunc"
			}
		}
		return strings.Contains(strings.ToLower(fn.Name()), "sort")
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return strings.Contains(strings.ToLower(id.Name), "sort")
	}
	return false
}

// printfVerbs extracts the verb letters of a printf-style format
// string, in argument order. Indexed arguments (%[1]d) return ok ==
// false: the caller should not attempt verb/argument matching.
func printfVerbs(format string) (verbs []byte, ok bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Flags, width, precision.
		for i < len(format) && strings.IndexByte("+-# 0123456789.*", format[i]) >= 0 {
			if format[i] == '*' {
				verbs = append(verbs, '*') // consumes an argument
			}
			i++
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		if format[i] == '[' {
			return nil, false
		}
		verbs = append(verbs, format[i])
	}
	return verbs, true
}

// forEachFunc walks every function body in the pass: declarations and
// function literals, handing each to fn along with the enclosing
// function declaration (nil for literals outside any declaration).
func forEachFunc(p *Pass, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd, fd.Body)
			}
		}
	}
}
