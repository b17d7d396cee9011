package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockCheck enforces the repository's lock-grouping convention: in a
// struct, the fields declared in the same contiguous group as a guard
// (isGuard: a sync.Mutex / sync.RWMutex named `mu` or ending in `Mu`),
// below it, are guarded by that mutex (a blank line or another guard
// ends the guarded group). Every exported method on the struct that
// touches a guarded field must acquire that specific mutex somewhere in
// its body. This is a heuristic — it cannot prove the lock covers the
// access — but it catches the common regression of adding a fast-path
// accessor that forgets the lock entirely.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "exported methods touching mutex-guarded fields must acquire the guarding mutex (escape: //sebdb:ignore-lock <reason>)",
	Run:  runLockCheck,
}

func runLockCheck(p *Pass) []Finding {
	pkg := p.Package
	// structs maps a struct type name to its guarded field names, each to
	// the name of the guard that guards it.
	structs := make(map[string]map[string]string)
	for _, f := range pkg.Files {
		collectGuardedStructs(pkg, f, structs)
	}
	if len(structs) == 0 {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recvName, typeName, byValue, ok := receiverOf(fd)
			if !ok {
				continue
			}
			touched, guard := touchedGuardedField(fd.Body, recvName, structs[typeName])
			if touched == "" {
				continue
			}
			if byValue {
				// A value receiver copies the struct — including the mutex —
				// without holding the lock. Acquiring the copied mutex guards
				// nothing, so this is a violation whether or not the body
				// calls Lock.
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(fd.Pos()),
					Analyzer: "lockcheck",
					Message: fmt.Sprintf("method %s.%s touches %s-guarded field %q through a value receiver — the receiver (and its mutex) is an unguarded copy; use a pointer receiver",
						typeName, fd.Name.Name, guard, touched),
				})
				continue
			}
			if acquiresMutex(pkg.Info, fd.Body, recvName, guard) {
				continue
			}
			out = append(out, Finding{
				Pos:      pkg.Fset.Position(fd.Pos()),
				Analyzer: "lockcheck",
				Message: fmt.Sprintf("exported method %s.%s touches %s-guarded field %q without acquiring %s.%s",
					typeName, fd.Name.Name, guard, touched, recvName, guard),
			})
		}
	}
	return out
}

// collectGuardedStructs scans a file for structs with mutex fields and
// records, per mutex, the sibling fields in its contiguous declaration
// group. A struct may declare several guards (mu, poolMu, keyMu);
// each guards only its own group.
func collectGuardedStructs(pkg *Package, f *ast.File, out map[string]map[string]string) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, isType := n.(*ast.TypeSpec)
		if !isType {
			return true
		}
		st, isStruct := ts.Type.(*ast.StructType)
		if !isStruct || st.Fields == nil {
			return true
		}
		guarded := make(map[string]string)
		fields := st.Fields.List
		for muIdx, field := range fields {
			guard := guardFieldName(pkg, field)
			if guard == "" {
				continue
			}
			for i := muIdx + 1; i < len(fields); i++ {
				// A blank line between fields ends the guarded group; doc and
				// trailing comments stretch a field's extent. A second mutex
				// ends it too — it starts its own group.
				prevEnd := fields[i-1].End()
				if fields[i-1].Comment != nil && fields[i-1].Comment.End() > prevEnd {
					prevEnd = fields[i-1].Comment.End()
				}
				start := fields[i].Pos()
				if fields[i].Doc != nil {
					start = fields[i].Doc.Pos()
				}
				if pkg.Fset.Position(start).Line > pkg.Fset.Position(prevEnd).Line+1 {
					break
				}
				if guardFieldName(pkg, fields[i]) != "" {
					break
				}
				for _, name := range fields[i].Names {
					guarded[name.Name] = guard
				}
			}
		}
		if len(guarded) > 0 {
			out[ts.Name.Name] = guarded
		}
		return true
	})
}

// guardFieldName returns the field's name when it declares a guard, ""
// otherwise.
func guardFieldName(pkg *Package, field *ast.Field) string {
	for _, name := range field.Names {
		if isGuard(pkg.Info.Defs[name]) {
			return name.Name
		}
	}
	return ""
}

// receiverOf extracts the receiver variable, base type name, and
// whether the method takes its receiver by value (a copy).
func receiverOf(fd *ast.FuncDecl) (recvName, typeName string, byValue, ok bool) {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return "", "", false, false
	}
	recvName = fd.Recv.List[0].Names[0].Name
	t := fd.Recv.List[0].Type
	byValue = true
	if star, isStar := t.(*ast.StarExpr); isStar {
		t = star.X
		byValue = false
	}
	if gen, isGen := t.(*ast.IndexExpr); isGen { // generic receiver T[P]
		t = gen.X
	}
	id, isID := t.(*ast.Ident)
	if !isID {
		return "", "", false, false
	}
	return recvName, id.Name, byValue, true
}

// touchedGuardedField returns the first guarded field the body accesses
// through the receiver plus the mutex guarding it, or ("", "").
func touchedGuardedField(body *ast.BlockStmt, recvName string, guarded map[string]string) (field, guard string) {
	ast.Inspect(body, func(n ast.Node) bool {
		sel, isSel := n.(*ast.SelectorExpr)
		if !isSel {
			return true
		}
		id, isID := sel.X.(*ast.Ident)
		if isID && id.Name == recvName && guarded[sel.Sel.Name] != "" {
			field, guard = sel.Sel.Name, guarded[sel.Sel.Name]
			return false
		}
		return true
	})
	return field, guard
}

// acquiresMutex reports whether the body acquires recv.<guard>
// anywhere, directly or through a receiver lock helper.
func acquiresMutex(info *types.Info, body *ast.BlockStmt, recvName, guard string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall && !found {
			op, ok := lockCall(info, call)
			id, isID := op.base.(*ast.Ident)
			found = ok && op.acquire && op.guard.Name() == guard && isID && id.Name == recvName
		}
		return !found
	})
	return found
}
