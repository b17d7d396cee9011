package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"sebdb/internal/lint/callgraph"
)

// LockIO enforces the engine's lock-split discipline interprocedurally:
// no critical section of a guard (isGuard) may reach blocking
// I/O — fsync, file create/rename/truncate, checkpoint encode or bulk
// checkpoint load, network reads and writes — through any chain of
// calls. The checkpoint split (cut the window under the writer lock
// e.mu, encode and persist outside it) stays machine-checked instead
// of relying on review. Audited exceptions (the segment store
// serialising its own I/O, the group fsync that e.mu, the one writer
// lock, covers by design — reads take no engine lock, so only the next
// writer queues behind it) carry a //sebdb:ignore-lockio reason: <why>
// directive.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "mutex-guarded critical sections must not reach blocking I/O through any call chain (escape: //sebdb:ignore-lockio reason: <why>)",
	Run:  runLockIO,
}

// funcSpec names a function or method by package path, receiver base
// type ("" for plain functions) and name. It is how the
// interprocedural analyzers curate sinks, sources and sanitizers.
type funcSpec struct {
	pkg  string
	recv string
	name string
}

// lockIOSinks is the blocking-I/O frontier. Plain buffered writes to an
// already-open segment are deliberately absent: the commit pipeline
// appends under e.mu by design, and only durability operations (fsync,
// create, rename), bulk checkpoint encode/load and network I/O block
// long enough to break the lock contract.
var lockIOSinks = []funcSpec{
	// Standard library durability and file-creation operations.
	{"os", "File", "Sync"},
	{"os", "", "Rename"},
	{"os", "", "Create"},
	{"os", "", "OpenFile"},
	{"os", "", "WriteFile"},
	{"os", "", "Remove"},
	{"os", "", "RemoveAll"},
	{"os", "", "Truncate"},
	{"os", "", "Mkdir"},
	{"os", "", "MkdirAll"},
	// Network I/O.
	{"net", "Conn", "Read"},
	{"net", "Conn", "Write"},
	{"net", "", "Dial"},
	{"sebdb/internal/network", "", "WriteFrame"},
	{"sebdb/internal/network", "", "ReadFrame"},
	{"sebdb/internal/network", "Client", "Call"},
	// The injected filesystem the storage and snapshot layers write
	// through (the interface methods themselves are the sinks, so the
	// check holds regardless of which FS implementation is bound).
	{"sebdb/internal/faultfs", "File", "Sync"},
	{"sebdb/internal/faultfs", "FS", "Rename"},
	{"sebdb/internal/faultfs", "FS", "Remove"},
	{"sebdb/internal/faultfs", "FS", "Truncate"},
	{"sebdb/internal/faultfs", "FS", "OpenFile"},
	{"sebdb/internal/faultfs", "FS", "MkdirAll"},
	// Checkpoint encode and bulk checkpoint file I/O: the exact
	// operations the checkpoint split keeps out of e.mu.
	{"sebdb/internal/snapshot", "Checkpoint", "Encode"},
	{"sebdb/internal/snapshot", "Dir", "Write"},
	{"sebdb/internal/snapshot", "Dir", "Load"},
}

// matchSpec reports whether fn matches one of the curated specs.
func matchSpec(specs []funcSpec, fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	pkg, recv, name := fn.Pkg().Path(), "", fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvBaseName(sig.Recv().Type())
	}
	for _, s := range specs {
		if s.pkg == pkg && s.recv == recv && s.name == name {
			return true
		}
	}
	return false
}

// firstMatch returns the first of fns matching one of the specs, or
// nil.
func firstMatch(specs []funcSpec, fns []*types.Func) *types.Func {
	for _, fn := range fns {
		if matchSpec(specs, fn) {
			return fn
		}
	}
	return nil
}

// recvBaseName returns the base type name of a receiver type.
func recvBaseName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// runLockIO scans every function body, and every function literal as
// its own flow, for calls made under a guard that reach a sink.
func runLockIO(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		funcBodies(f, func(fd *ast.FuncDecl) {
			name := fd.Name.Name
			out = append(out, scanCriticalSections(p, name, fd.Body.List, nil)...)
			// Function literals (goroutine bodies in particular) run on
			// their own flow: scan each as an independent section context
			// so a lock acquired inside one is still checked.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, scanCriticalSections(p, name+" (func literal)", lit.Body.List, nil)...)
				}
				return true
			})
		})
	}
	return out
}

// scanCriticalSections walks one statement list in source order,
// tracking which guards are held (by their source text, "e.mu"), and
// checks every call made while any guard is held. Nested blocks inherit
// the held set; guards acquired inside a nested block do not leak out
// (acquiring in a branch and relying on it afterwards is not a pattern
// this codebase uses). Unlocks inside nested blocks likewise do not
// release the outer flow — conservative in the early-unlock-and-return
// idiom, where the branch ends in a return anyway.
func scanCriticalSections(p *Pass, fnName string, stmts []ast.Stmt, held []string) []Finding {
	var out []Finding
	held = append([]string(nil), held...)
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if op, ok := lockCall(p.Info, s.X); ok {
				if op.acquire {
					held = append(held, op.text(p.Fset))
				} else {
					held = releaseGuard(held, op.text(p.Fset))
				}
				continue
			}
		case *ast.DeferStmt:
			if op, ok := lockCall(p.Info, s.Call); ok && op.acquire {
				held = append(held, op.text(p.Fset))
				continue
			}
			// A deferred unlock keeps the guard held to the end of the
			// function; deferred non-lock calls run before it (LIFO), i.e.
			// still under the lock — fall through to the generic check.
		}
		if len(held) > 0 {
			out = append(out, checkGuardedStmt(p, fnName, held, stmt)...)
		}
		// Recurse into nested statement lists with the current held set,
		// skipping the ones checkGuardedStmt already covered.
		if len(held) == 0 {
			for _, nested := range nestedStmtLists(stmt) {
				out = append(out, scanCriticalSections(p, fnName, nested, held)...)
			}
		}
	}
	return out
}

// nestedStmtLists returns the statement lists nested in one statement.
func nestedStmtLists(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, nestedStmtLists(s.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, nestedStmtLists(s.Stmt)...)
	}
	return out
}

// releaseGuard drops the most recent acquisition of guard.
func releaseGuard(held []string, guard string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == guard {
			return append(held[:i], held[i+1:]...)
		}
	}
	return held
}

// checkGuardedStmt reports every call in stmt (excluding `go`
// statements — a spawned goroutine does not run under the caller's
// lock) whose callee is, or transitively reaches, a blocking sink.
func checkGuardedStmt(p *Pass, fnName string, held []string, stmt ast.Stmt) []Finding {
	var out []Finding
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, isGo := n.(*ast.GoStmt); isGo {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if _, isLockOp := lockCall(p.Info, call); isLockOp {
			return true
		}
		for _, callee := range p.graph.CalleesAt(p.Info, call) {
			if !p.ioReach.Reaches(callee) {
				continue
			}
			out = append(out, Finding{
				Pos:      p.Fset.Position(call.Pos()),
				Analyzer: "lockio",
				Message: fmt.Sprintf("%s holds %s while calling %s, which reaches blocking I/O: %s",
					fnName, strings.Join(held, "+"), callee.Name(), sinkPath(p.ioReach, callee)),
			})
			break // one finding per call site is enough
		}
		return true
	})
	return out
}

// sinkPath renders the witness call chain to the sink.
func sinkPath(reach *callgraph.Reach, fn *types.Func) string {
	path := reach.Path(fn)
	parts := make([]string, len(path))
	for i, p := range path {
		parts[i] = funcDisplay(p)
	}
	return strings.Join(parts, " -> ")
}

// funcDisplay renders a function as pkg.Recv.Name or pkg.Name.
func funcDisplay(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if base := recvBaseName(sig.Recv().Type()); base != "" {
			return pkg + base + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}
