package lint

import (
	"go/ast"
	"strings"
)

// Atomicwrite enforces the crash-consistency discipline of the storage
// and snapshot packages: all file I/O goes through the injected
// faultfs.FS, and snapshot files are created under a temp path and
// renamed into place, never written directly under their published
// name (a crash mid-write must leave a torn temp file, not a torn
// checkpoint a later Open could half-trust). The snapshot package has
// one more legal protocol, the checkpoint log's: an existing file may
// be opened for writing only with O_APPEND, by a function that reaches
// a Sync — the appended frame must be durable before the manifest's
// tmp+rename pins the new length — and a file may be truncated only
// back to a pinned length (the size expression mentions "pin"), which
// is how the unpinned tail of a crashed append is cut off. In storage the
// staging rule applies to whole-file rewrites (OpenFile with
// O_CREATE|O_TRUNC, the recompression path): clobbering a published
// segment in place would turn a crash into data loss, so the only
// legal truncating creations target a tmp path that a later rename
// publishes.
var Atomicwrite = &Analyzer{
	Name: "atomicwrite",
	Doc:  "crash-tested packages must route file I/O through faultfs.FS; snapshot creations and storage rewrites must stage a tmp path and rename; snapshot log appends must be O_APPEND + Sync, truncations back to a pinned length",
	Run:  runAtomicwrite,
}

func runAtomicwrite(p *Pass) []Finding {
	out := runScoped(p, "atomicwrite")
	inSnapshot := under(p.Path, "sebdb/internal/snapshot")
	inStorage := under(p.Path, "sebdb/internal/storage")
	if !inSnapshot && !inStorage {
		return out
	}
	pkg := p.Package
	if inSnapshot {
		out = append(out, checkSnapshotLog(pkg)...)
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			_, name, isSel := selectorCall(call)
			if !isSel || name != "OpenFile" || len(call.Args) < 2 || !mentionsFlag(call.Args[1], "O_CREATE") ||
				strings.Contains(strings.ToLower(exprText(pkg.Fset, call.Args[0])), "tmp") {
				return true
			}
			// In the snapshot subtree, any FS.OpenFile that creates a file
			// must target a staging path (its path expression mentions
			// "tmp") so the only published names are rename targets.
			if inSnapshot {
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(call.Pos()),
					Analyzer: "atomicwrite",
					Message:  "snapshot creates a file under its published name; write to a tmp path and rename into place",
				})
			}
			// In the storage subtree, creating opens of the active segment
			// (O_APPEND, no truncation) legitimately publish in place, but
			// a truncating creation is a whole-file rewrite — the
			// recompression path — and must stage a tmp path for rename.
			if inStorage && mentionsFlag(call.Args[1], "O_TRUNC") {
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(call.Pos()),
					Analyzer: "atomicwrite",
					Message:  "storage rewrites a file under its published name; stage the rewrite at a tmp path and rename into place",
				})
			}
			return true
		})
	}
	return out
}

// mentionsFlag reports whether the flags expression references the
// named open-flag constant (e.g. O_CREATE, O_TRUNC).
func mentionsFlag(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, isID := n.(*ast.Ident); isID && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// checkSnapshotLog enforces the snapshot package's append protocol on
// writes to already published files (opens without O_CREATE) and on
// truncations.
func checkSnapshotLog(pkg *Package) []Finding {
	// syncs holds the package's functions that reach a Sync call,
	// directly or through another function of the package: the fixpoint
	// of "calls x.Sync() or calls a member of syncs".
	syncs := make(map[string]bool)
	for grew := true; grew; {
		grew = false
		for _, f := range pkg.Files {
			funcBodies(f, func(fd *ast.FuncDecl) {
				name := fd.Name.Name
				if !syncs[name] && callsAny(fd.Body, syncs) {
					syncs[name], grew = true, true
				}
			})
		}
	}
	var out []Finding
	flag := func(call *ast.CallExpr, msg string) {
		out = append(out, Finding{Pos: pkg.Fset.Position(call.Pos()), Analyzer: "atomicwrite", Message: msg})
	}
	for _, f := range pkg.Files {
		funcBodies(f, func(fd *ast.FuncDecl) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				_, name, isSel := selectorCall(call)
				switch {
				case !isSel:
				case name == "OpenFile" && len(call.Args) >= 2 && !mentionsFlag(call.Args[1], "O_CREATE") &&
					(mentionsFlag(call.Args[1], "O_WRONLY") || mentionsFlag(call.Args[1], "O_RDWR") || mentionsFlag(call.Args[1], "O_APPEND")):
					if !mentionsFlag(call.Args[1], "O_APPEND") {
						flag(call, "snapshot opens a published file for in-place writes; the only legal write to a published name is an O_APPEND append to the log")
					} else if !callsAny(fd.Body, syncs) {
						flag(call, "snapshot appends to the log without a Sync; the frame must be durable before the manifest pins the new length")
					}
				case name == "Truncate" && len(call.Args) == 2 &&
					!strings.Contains(strings.ToLower(exprText(pkg.Fset, call.Args[1])), "pin"):
					flag(call, "snapshot truncates a file to an unpinned length; a log may only be cut back to the length the manifest pins")
				}
				return true
			})
		})
	}
	return out
}

// callsAny reports whether body calls x.Sync() or any function or
// method whose name is in names.
func callsAny(body *ast.BlockStmt, names map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || found {
			return !found
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			found = names[fun.Name]
		case *ast.SelectorExpr:
			found = fun.Sel.Name == "Sync" || names[fun.Sel.Name]
		}
		return !found
	})
	return found
}
