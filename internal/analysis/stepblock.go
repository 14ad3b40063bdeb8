package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Stepblock flags a blocking primitive called where a script runs: in the
// Step method of a sim.Stepper or the Handle method of a sim.Server, or in
// any function of the same package they reach. Those methods run on
// whatever stack is dispatching, for a process that is parked, so a
// blocking call there panics at run time ("called on process … from outside
// its context") — but only on a path a test reaches, and a script's cold
// paths (a failed send, a timed-out call, a rollback) are the ones the tests
// reach least. A script arms its next leg with the non-parking halves
// instead: Proc.ArmWait, Resource.ArmAcquire, Chan.ArmRecv, Signal.ArmWait,
// cluster.Leg, pmclient.WriteLeg, disk.WriteLeg, servernet's Begin*
// transfers; a row lock it takes with locks.Manager.TryAcquire, and waits for
// in a process of its own.
//
// The walk follows static calls to functions and methods declared in the
// package; it does not enter function literals, which run later and
// elsewhere (a process spawned from a step blocks on its own stack), nor
// calls through interfaces or function values.
var Stepblock = &Analyzer{
	Name: "stepblock",
	Doc: "forbid blocking primitives (Wait, Recv, Acquire, Signal.Wait, ParkScript, Compute, " +
		"Call, Region.Write, …) inside a sim.Stepper's Step or a sim.Server's Handle and what they call",
	Run: runStepblock,
}

// blockingPrims lists the blocking primitives by package, receiver type and
// method: every call that parks the calling process.
var blockingPrims = map[string]map[string][]string{
	"persistmem/internal/sim": {
		"Proc":     {"Wait", "WaitUntil", "ParkScript"},
		"Chan":     {"Send", "Recv", "RecvTimeout", "Serve", "ServeLegs"},
		"Resource": {"Acquire", "Use"},
		"Signal":   {"Wait", "WaitTimeout"},
	},
	"persistmem/internal/cluster": {
		"Process": {"Compute", "Wait", "Send", "Call", "CallAsync", "AwaitReply", "Recv", "RecvTimeout"},
		"PairCtx": {"Checkpoint"},
		"Pair":    {"CheckpointFrom", "WaitDown"},
	},
	"persistmem/internal/servernet": {
		"Fabric": {"Send", "RDMAWrite", "RDMARead"},
	},
	"persistmem/internal/pmclient": {
		"Region": {"Write", "WriteRing", "Read", "ReadReplica", "Close"},
		"Volume": {"Create", "Open", "OpenOrCreate", "Delete", "Resilver", "List"},
	},
	"persistmem/internal/disk": {
		"Volume": {"Write", "Read"},
	},
	"persistmem/internal/locks": {
		"Manager": {"Acquire"},
	},
}

// blockingPrim names f as recv.Method when it is a blocking primitive.
func blockingPrim(f *types.Func) (string, bool) {
	if f.Pkg() == nil {
		return "", false
	}
	byType := blockingPrims[f.Pkg().Path()]
	if byType == nil {
		return "", false
	}
	recv := recvTypeName(f)
	for _, m := range byType[recv] {
		if m == f.Name() {
			return recv + "." + m, true
		}
	}
	return "", false
}

// recvTypeName returns the name of f's receiver's named type, pointer or
// not, or "" for a plain function.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isSimProc reports whether t is *sim.Proc.
func isSimProc(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Proc" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "persistmem/internal/sim"
}

// isScriptEntry reports whether fd is a method the dispatcher runs for a
// parked process: Step(*sim.Proc) bool, or Handle(*sim.Proc, v) bool.
func isScriptEntry(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || (fd.Name.Name != "Step" && fd.Name.Name != "Handle") {
		return false
	}
	f, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := f.Type().(*types.Signature)
	want := 1
	if fd.Name.Name == "Handle" {
		want = 2
	}
	if sig.Params().Len() != want || !isSimProc(sig.Params().At(0).Type()) || sig.Results().Len() != 1 {
		return false
	}
	b, ok := sig.Results().At(0).Type().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func runStepblock(p *Pass) error {
	decls := make(map[*types.Func]*ast.FuncDecl)
	var entries []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
			if isScriptEntry(p.Info, fd) {
				entries = append(entries, fd)
			}
		}
	}
	reported := make(map[token.Pos]bool)
	for _, entry := range entries {
		entryName := funcDeclName(entry)
		visited := map[*ast.FuncDecl]bool{entry: true}
		var walk func(fd *ast.FuncDecl, path []string)
		walk = func(fd *ast.FuncDecl, path []string) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // runs later, on whatever process calls it
				case *ast.CallExpr:
					f := calleeFunc(p.Info, n)
					if f == nil {
						return true
					}
					if name, ok := blockingPrim(f); ok {
						if !reported[n.Pos()] {
							reported[n.Pos()] = true
							via := ""
							if len(path) > 0 {
								via = " via " + strings.Join(path, " → ")
							}
							p.Reportf(n.Pos(), "blocking %s called on the dispatching stack (reached from %s%s): a script must arm its next leg with a non-parking half, not park", name, entryName, via)
						}
						return true
					}
					if callee := decls[f]; callee != nil && !visited[callee] {
						visited[callee] = true
						walk(callee, append(path[:len(path):len(path)], funcDeclName(callee)))
					}
				}
				return true
			})
		}
		walk(entry, nil)
	}
	return nil
}

// funcDeclName renders a declaration as (*T).M, T.M or F.
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := ""
	if se, ok := t.(*ast.StarExpr); ok {
		star, t = "*", se.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		if star != "" {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
