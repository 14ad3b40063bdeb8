package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Goroutine forbids real concurrency inside the virtual-time kernel and
// the model code it schedules. Simulated processes are interleaved
// deterministically on one OS thread; a stray `go` statement, `select`, or
// sync.Mutex introduces OS-scheduler ordering into the virtual schedule
// and silently breaks byte-identical replay. Real concurrency belongs only
// to internal/bench's worker pool (one engine per goroutine, sharing
// nothing), which is exempted via Classify.
//
// iter.Pull and iter.Pull2 count as go statements: each call starts a
// goroutine for the iterator. The kernel's own coroutine machinery
// (internal/sim/proc.go) is built on exactly that; its one call site
// carries a //simlint:allow goroutine directive with the justification.
// The only other one is internal/stable's sync/atomic import, for the
// single-slot spare read buffer that recoveries hand on across engines.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc: "forbid go statements, iter.Pull, select, sync primitives, and real " +
		"channels inside virtual-time kernel and model code",
	Run: runGoroutine,
}

func runGoroutine(p *Pass) error {
	if !p.SimCritical || p.RealConcOK {
		return nil
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				p.Reportf(imp.Pos(), "import of %q: real synchronization primitives race on the OS scheduler; virtual-time code needs none (one thread) — real concurrency belongs in internal/bench", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "go statement spawns an OS-scheduled goroutine inside virtual-time code; use Engine.Spawn to create a simulated process")
			case *ast.SelectStmt:
				p.Reportf(n.Pos(), "select resolves by real channel readiness, not virtual time; use sim.Chan operations (Recv/RecvTimeout)")
			case *ast.CallExpr:
				if isIterPull(p.Info, n) {
					p.Reportf(n.Pos(), "iter.Pull starts an OS-scheduled goroutine for the iterator inside virtual-time code; use Engine.Spawn to create a simulated process")
					return true
				}
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok || id.Name != "make" {
					return true
				}
				if _, ok := p.Info.Uses[id].(*types.Builtin); !ok {
					return true
				}
				if t := p.Info.TypeOf(n); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						p.Reportf(n.Pos(), "make(chan) creates a real channel whose operations block the OS thread; use Engine.NewChan for virtual-time channels")
					}
				}
			}
			return true
		})
	}
	return nil
}

// isIterPull reports whether call invokes iter.Pull or iter.Pull2.
func isIterPull(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == "iter" && (f.Name() == "Pull" || f.Name() == "Pull2")
}
