// Package analysis implements simlint, the repository's determinism and
// hot-path static-analysis suite.
//
// The discrete-event simulation kernel (internal/sim) promises bit-for-bit
// reproducible schedules: the same seed and program produce byte-identical
// figures across runs, machines, and worker-pool parallelism. That promise
// rests on invariants that ordinary review cannot reliably police — no wall
// clock, no process-global randomness, no unordered map walks feeding the
// schedule, no real concurrency inside virtual time, and no per-event
// allocation on the paths the benchmarks certify as zero-alloc. simlint
// encodes those invariants as analyzers so they are machine-checked on
// every change (scripts/check.sh and CI run the suite over ./...).
//
// The six analyzers:
//
//   - nodeterm:   wall-clock calls, process-global math/rand, and map range
//     statements in sim-critical packages.
//   - seedflow:   *rand.Rand construction outside Engine.DeriveRand.
//   - hotalloc:   per-event allocation (fmt, varargs, interface boxing,
//     capturing closures) inside //simlint:hotpath functions.
//   - goroutine:  real concurrency (go, select, sync, make(chan)) inside
//     virtual-time kernel and model code.
//   - boxcheck:   lifecycle tracking for pooled boxes declared with
//     //simlint:box — use-after-put, double-put, put-of-nil, escapes
//     into fields without //simlint:boxowner, early-return leaks.
//   - stepblock:  blocking primitives (Wait, Recv, Acquire, Call, Compute,
//     Region.Write, ParkScript, …) reached from a sim.Stepper's Step or a
//     sim.Server's Handle, which run on the dispatching stack.
//
// Directives (line comments) tune the analyzers where the rules need
// human-reviewed exceptions; each should carry a `-- reason` suffix:
//
//	//simlint:ordered            map walk on this or the next line is provably
//	                             order-insensitive (suppresses nodeterm's
//	                             map-range rule only)
//	//simlint:hotpath            on a function's doc comment: hotalloc enforces
//	                             the zero-alloc discipline on its body
//	//simlint:seedsource         on a function's doc comment: the blessed
//	                             derivation point allowed to construct
//	                             rand sources (Engine.DeriveRand)
//	//simlint:allow <analyzer>   suppress the named analyzer on this or the
//	                             next line
//	//simlint:box                on a struct field: the field is a free list
//	                             whose element type is a pooled box; boxcheck
//	                             derives Get/Put functions from the code and
//	                             enforces the box lifecycle
//	//simlint:boxowner           on a struct field: storing a pooled box here
//	                             is a sanctioned ownership transfer (the
//	                             structure now owns the box's lifecycle)
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one simlint check. It is intentionally a tiny subset of
// golang.org/x/tools/go/analysis.Analyzer: the x/tools module is not a
// dependency of this repository, so the driver, pass plumbing, and test
// harness are implemented on the standard library alone.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Analyzers returns the full simlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Nodeterm, Seedflow, Hotalloc, Goroutine, Boxcheck, Stepblock}
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Target is a parsed, typechecked package ready to be analyzed.
type Target struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	// SimCritical marks packages that execute inside (or feed) the
	// deterministic simulation; nodeterm/seedflow/goroutine only apply
	// there. RealConcOK exempts a package from the goroutine analyzer
	// (the bench worker pool runs real goroutines by design).
	SimCritical bool
	RealConcOK  bool

	dirs map[dirKey][]directive
}

type dirKey struct {
	file string
	line int
}

// directive is one parsed //simlint:<verb> [arg] [-- reason] comment.
type directive struct {
	verb string
	arg  string
}

// NewTarget assembles a Target and indexes its simlint directives. The
// import path classifies the package (see Classify); tests may override
// SimCritical/RealConcOK afterwards.
func NewTarget(importPath string, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Target {
	t := &Target{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
		dirs:       make(map[dirKey][]directive),
	}
	t.SimCritical, t.RealConcOK = Classify(importPath)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				k := dirKey{pos.Filename, pos.Line}
				t.dirs[k] = append(t.dirs[k], d)
			}
		}
	}
	return t
}

// parseDirective recognizes //simlint:verb [arg] [-- reason] comments.
func parseDirective(text string) (directive, bool) {
	const prefix = "//simlint:"
	if !strings.HasPrefix(text, prefix) {
		return directive{}, false
	}
	body := text[len(prefix):]
	if i := strings.Index(body, "--"); i >= 0 {
		body = body[:i] // strip the justification
	}
	if i := strings.Index(body, "//"); i >= 0 {
		body = body[:i] // strip a nested comment (fixture // want expectations)
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return directive{}, false
	}
	d := directive{verb: fields[0]}
	if len(fields) > 1 {
		d.arg = fields[1]
	}
	return d, true
}

// DirectiveAt reports whether a //simlint:<verb> [arg] directive is present
// on pos's line or the line immediately above it (a standalone comment).
func (t *Target) DirectiveAt(pos token.Pos, verb, arg string) bool {
	p := t.Fset.Position(pos)
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, d := range t.dirs[dirKey{p.Filename, line}] {
			if d.verb == verb && (arg == "" || d.arg == arg) {
				return true
			}
		}
	}
	return false
}

// HasFuncDirective reports whether fd's doc comment carries the directive.
func HasFuncDirective(fd *ast.FuncDecl, verb string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if d, ok := parseDirective(c.Text); ok && d.verb == verb {
			return true
		}
	}
	return false
}

// Pass is one analyzer's view of one Target.
type Pass struct {
	*Target
	Analyzer *Analyzer
	Report   func(Diagnostic)
}

// Reportf emits a diagnostic unless an //simlint:allow <analyzer> directive
// covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.DirectiveAt(pos, "allow", p.Analyzer.Name) {
		return
	}
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies every analyzer to the target, streaming findings to
// report. The first analyzer error aborts the run.
func RunAnalyzers(t *Target, analyzers []*Analyzer, report func(Diagnostic)) error {
	for _, a := range analyzers {
		pass := &Pass{Target: t, Analyzer: a, Report: report}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %s: %v", a.Name, t.ImportPath, err)
		}
	}
	return nil
}

// calleeFunc resolves the called function or method of a call expression
// (explicit type arguments stripped), or nil for builtins, conversions, and
// indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isMethod reports whether f has a receiver.
func isMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isInterface reports whether t's underlying type is an interface.
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}
