package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Hotalloc enforces the zero-alloc discipline on functions whose doc
// comment carries //simlint:hotpath — the event loop, the tracer
// short-circuits, and the scratch-buffer encode paths that the kernel
// benchmarks certify at 0 allocs/event. Within a hot function it flags the
// four per-call allocation shapes that most often sneak back in:
//
//   - fmt.* calls (format state + result string per call)
//   - variadic calls that build a fresh argument slice per call
//   - interface boxing: a concrete value assigned or passed where an
//     interface is expected
//   - function literals that capture enclosing variables (a closure
//     object per evaluation)
//
// The check is intraprocedural and advisory-by-construction: a site that
// is provably cold (e.g. guarded by Engine.traceEnabled) is suppressed
// with //simlint:allow hotalloc and a justification.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag per-event allocation (fmt, varargs, interface boxing, " +
		"capturing closures) in //simlint:hotpath functions",
	Run: runHotalloc,
}

func runHotalloc(p *Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !HasFuncDirective(fd, "hotpath") {
				continue
			}
			checkHotBody(p, fd)
		}
	}
	return nil
}

func checkHotBody(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, n)
		case *ast.CompositeLit:
			checkHotComposite(p, n)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if boxes(p.Info, n.Rhs[i], p.Info.TypeOf(lhs)) {
						p.Reportf(n.Rhs[i].Pos(), "assignment boxes %s into %s (allocates per event)", p.Info.TypeOf(n.Rhs[i]), p.Info.TypeOf(lhs))
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type == nil {
				return true
			}
			dst := p.Info.TypeOf(n.Type)
			for _, v := range n.Values {
				if boxes(p.Info, v, dst) {
					p.Reportf(v.Pos(), "declaration boxes %s into %s (allocates per event)", p.Info.TypeOf(v), dst)
				}
			}
		case *ast.FuncLit:
			if caps := capturedVars(p, n); len(caps) > 0 {
				p.Reportf(n.Pos(), "closure captures %s — a closure object is allocated per evaluation; hoist the state or pass it explicitly", strings.Join(caps, ", "))
			}
		}
		return true
	})
}

func checkHotCall(p *Pass, call *ast.CallExpr) {
	// Conversions: interface{}(x) and named-interface conversions box.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(p.Info, call.Args[0], tv.Type) {
			p.Reportf(call.Pos(), "conversion boxes %s into %s (allocates per event)", p.Info.TypeOf(call.Args[0]), tv.Type)
		}
		return
	}

	// Builtins get synthesized signatures from go/types but none of the
	// allocation shapes apply: append grows amortized, panic only runs on
	// the unwinding path, and the rest don't build argument slices.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}

	if fn := calleeFunc(p.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		p.Reportf(call.Pos(), "fmt.%s allocates its format state and result on every call; precompute or move formatting off the hot path", fn.Name())
		return // don't double-report its varargs
	}

	sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // builtin or type error
	}

	// A non-ellipsis call of a variadic function builds a fresh backing
	// slice for the variadic arguments on every call.
	if sig.Variadic() && call.Ellipsis == 0 && len(call.Args) >= sig.Params().Len() {
		elem := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		detail := ""
		if isInterface(elem) {
			detail = " and boxes each argument"
		}
		p.Reportf(call.Pos(), "variadic call allocates a fresh ...%s slice per call%s; pass a reused slice with ... or unroll", elem, detail)
	}

	// Fixed parameters: concrete argument where an interface is expected.
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
	}
	for i, arg := range call.Args {
		if i >= fixed {
			break
		}
		dst := sig.Params().At(i).Type()
		if boxes(p.Info, arg, dst) {
			p.Reportf(arg.Pos(), "argument boxes %s into %s (allocates per event)", p.Info.TypeOf(arg), dst)
		}
	}
}

func checkHotComposite(p *Pass, lit *ast.CompositeLit) {
	st, ok := p.Info.TypeOf(lit).Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var dst types.Type
		var val ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if obj, ok := p.Info.Uses[id].(*types.Var); ok {
					dst, val = obj.Type(), kv.Value
				}
			}
		} else if i < st.NumFields() {
			dst, val = st.Field(i).Type(), elt
		}
		if val != nil && boxes(p.Info, val, dst) {
			p.Reportf(val.Pos(), "composite literal boxes %s into %s (allocates per event)", p.Info.TypeOf(val), dst)
		}
	}
}

// boxes reports whether assigning expr to a destination of type dst wraps a
// concrete value in an interface and allocates for it. Untyped nil and values
// that are already interfaces do not; neither does a pointer, map, chan or
// func, which the interface's data word stores directly.
func boxes(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil || !isInterface(dst) {
		return false
	}
	src := info.TypeOf(expr)
	if src == nil || isInterface(src) {
		return false
	}
	switch u := src.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	}
	return true
}

// capturedVars lists (in source order, deduplicated) the variables a
// function literal references that are declared outside it — the captures
// that force a closure allocation. Package-level variables and struct
// fields are not captures.
func capturedVars(p *Pass, fl *ast.FuncLit) []string {
	var names []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		if obj.Pkg() != p.Pkg || obj.Parent() == p.Pkg.Scope() {
			return true
		}
		if obj.Pos() >= fl.Pos() && obj.Pos() < fl.End() {
			return true // declared inside the literal
		}
		seen[obj] = true
		names = append(names, obj.Name())
		return true
	})
	return names
}
