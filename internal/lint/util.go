package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Suppression directives. This is the single implementation of
// //sebdb:ignore-* comment parsing — analyzers never scan comments
// themselves; RunAll collects directives here and filters findings.

// directivePrefix introduces suppression comments:
// //sebdb:ignore-<name> <reason>. The reason is mandatory — a
// suppression nobody can justify is itself reported.
const directivePrefix = "//sebdb:ignore-"

// directiveAliases maps directive suffixes to analyzer names, so the
// documented //sebdb:ignore-err form reaches droppederr.
var directiveAliases = map[string]string{
	"atomic":       "atomicwrite",
	"atomicwrite":  "atomicwrite",
	"err":          "droppederr",
	"droppederr":   "droppederr",
	"decodebounds": "decodebounds",
	"determinism":  "determinism",
	"lock":         "lockcheck",
	"lockcheck":    "lockcheck",
	"lockio":       "lockio",
	"obsclock":     "obsclock",
	"rawlog":       "rawlog",
	"readlock":     "readlock",
	"trusttaint":   "trusttaint",
	"u32":          "u32trunc",
	"u32trunc":     "u32trunc",
}

// reasonClauseRequired lists the analyzers whose suppressions must spell
// out an explicit `reason:` clause — the interprocedural analyzers guard
// crash-safety and trust invariants, and their audited exceptions are
// expected to read as documentation.
var reasonClauseRequired = map[string]bool{
	"lockio":     true,
	"readlock":   true,
	"trusttaint": true,
}

// suppression records where one directive silences one analyzer.
type suppression struct {
	analyzer  string
	file      string
	line      int // directive's own line; also silences line+1
	from, to  int // optional declaration range (inclusive lines), 0 if none
	reasonOK  bool
	directive token.Position
}

// collectSuppressions gathers every directive in the package, attaching
// declaration ranges for doc comments.
func collectSuppressions(pkg *Package) []suppression {
	var out []suppression
	for _, f := range pkg.Files {
		// Map doc-comment positions to their declaration's line range so
		// a directive above a func/type suppresses the whole body.
		docRange := make(map[token.Pos][2]int)
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc != nil {
				docRange[doc.Pos()] = [2]int{
					pkg.Fset.Position(decl.Pos()).Line,
					pkg.Fset.Position(decl.End()).Line,
				}
			}
		}
		for _, cg := range f.Comments {
			rng, isDoc := docRange[cg.Pos()]
			for _, c := range cg.List {
				name, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				s := suppression{
					analyzer:  name,
					file:      pos.Filename,
					line:      pos.Line,
					reasonOK:  reasonAccepted(name, reason),
					directive: pos,
				}
				if isDoc {
					s.from, s.to = rng[0], rng[1]
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// parseDirective splits a //sebdb:ignore-<name> <reason> comment.
func parseDirective(text string) (analyzer, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, directivePrefix)
	if !found {
		return "", "", false
	}
	name, reason, _ := strings.Cut(rest, " ")
	canonical, known := directiveAliases[name]
	if !known {
		return "", "", false
	}
	return canonical, strings.TrimSpace(reason), true
}

// reasonAccepted applies the per-analyzer reason policy: every
// suppression needs a reason, and the interprocedural analyzers need it
// introduced by an explicit `reason:` clause.
func reasonAccepted(analyzer, reason string) bool {
	if reason == "" {
		return false
	}
	if reasonClauseRequired[analyzer] {
		return strings.HasPrefix(reason, "reason:") && strings.TrimSpace(strings.TrimPrefix(reason, "reason:")) != ""
	}
	return true
}

// suppresses reports whether s silences a finding of the given analyzer
// at pos.
func (s suppression) suppresses(analyzer string, pos token.Position) bool {
	if s.analyzer != analyzer || s.file != pos.Filename {
		return false
	}
	if pos.Line == s.line || pos.Line == s.line+1 {
		return true
	}
	return s.from != 0 && pos.Line >= s.from && pos.Line <= s.to
}

// exprText renders an expression to canonical source text, used to
// compare guard expressions structurally.
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// funcBodies visits every top-level function body in the file exactly
// once. Function literals are analysed as part of the declaration that
// encloses them, so guards established in the outer scope count for
// closures too.
func funcBodies(f *ast.File, visit func(fd *ast.FuncDecl)) {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			visit(fd)
		}
	}
}

// object resolves an identifier through Uses then Defs.
func object(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isNamed reports whether t, possibly behind a pointer, is one of the
// named types pkg.name.
func isNamed(t types.Type, pkg string, names ...string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkg && slices.Contains(names, named.Obj().Name())
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// returnsError reports whether the call's result includes an error and
// how many results it has. ok is false when type information is
// unavailable for the call.
func returnsError(info *types.Info, call *ast.CallExpr) (hasErr bool, results int, ok bool) {
	tv, found := info.Types[call.Fun]
	if found && tv.IsType() {
		return false, 1, true // conversion, not a call
	}
	rtv, found := info.Types[call]
	if !found {
		return false, 0, false
	}
	switch t := rtv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				hasErr = true
			}
		}
		return hasErr, t.Len(), true
	default:
		return isErrorType(rtv.Type), 1, true
	}
}

// pkgPathOf returns the import path of the package an identifier's
// object belongs to ("" for builtins and unresolved identifiers).
func pkgPathOf(info *types.Info, id *ast.Ident) string {
	o := object(info, id)
	if o == nil || o.Pkg() == nil {
		return ""
	}
	return o.Pkg().Path()
}

// selectorCall matches a call of the form recv.Name(...) and returns
// the receiver expression and the method name.
func selectorCall(call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// importsPackage reports whether the file imports the given path, and
// returns the local name it is bound to ("time", or a rename).
func importsPackage(f *ast.File, path string) (localName string, ok bool) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name, true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p, true
	}
	return "", false
}

// baseIdentObj unwraps selectors, indexing, slicing, derefs and parens
// to the object of the base identifier an expression is rooted in, or
// nil when the expression is not rooted in a plain identifier.
func baseIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return object(info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// containsIdentObj reports whether the expression mentions the given
// object (matching by types.Object when available, by name otherwise).
func containsIdentObj(info *types.Info, e ast.Expr, obj types.Object, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, isID := n.(*ast.Ident); isID {
			if o := object(info, id); o != nil && obj != nil {
				if o == obj {
					found = true
				}
			} else if id.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}
