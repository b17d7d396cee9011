package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// DroppedErr forbids discarding error returns in non-test code: both
// the explicit `_ = f()` form and bare call statements (including defer
// and go) whose results include an error. The escape hatch is a
// `//sebdb:ignore-err <reason>` comment on (or directly above) the
// offending line.
var DroppedErr = &Analyzer{
	Name: "droppederr",
	Doc:  "error returns must be handled, not discarded (escape: //sebdb:ignore-err <reason>)",
	Run:  runDroppedErr,
}

// droppedErrExempt lists callees whose error result is documented to
// always be nil, so forcing handling would only add noise. Keys are
// "<pkg path>.<name>" for functions and "<type>.<method>" for methods,
// with any pointer star stripped from the receiver type.
var droppedErrExempt = map[string]bool{
	// fmt's Print family: terminal output, an error means stdout is gone.
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	// These writers never return a non-nil error per their docs.
	"bytes.Buffer.Write": true, "bytes.Buffer.WriteString": true,
	"bytes.Buffer.WriteByte": true, "bytes.Buffer.WriteRune": true,
	"strings.Builder.Write": true, "strings.Builder.WriteString": true,
	"strings.Builder.WriteByte": true, "strings.Builder.WriteRune": true,
	// hash.Hash.Write never returns an error (hash package docs); the
	// fnv constructors return the Hash32/Hash64 refinements.
	"hash.Hash.Write": true, "hash.Hash32.Write": true, "hash.Hash64.Write": true,
}

func runDroppedErr(p *Pass) []Finding {
	pkg := p.Package
	var out []Finding
	report := func(n ast.Node, form string) {
		out = append(out, Finding{
			Pos:      pkg.Fset.Position(n.Pos()),
			Analyzer: "droppederr",
			Message:  fmt.Sprintf("%s discards an error result; handle it or annotate //sebdb:ignore-err <reason>", form),
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok && dropsError(pkg.Info, call) {
					report(s, "call statement")
				}
			case *ast.DeferStmt:
				if dropsError(pkg.Info, s.Call) {
					report(s, "deferred call")
				}
			case *ast.GoStmt:
				if dropsError(pkg.Info, s.Call) {
					report(s, "go statement")
				}
			case *ast.AssignStmt:
				out = append(out, checkAssignDrops(pkg, s)...)
			}
			return true
		})
	}
	return out
}

// dropsError reports whether executing call as a statement discards an
// error result.
func dropsError(info *types.Info, call *ast.CallExpr) bool {
	hasErr, _, ok := returnsError(info, call)
	return ok && hasErr && !isExemptCallee(info, call)
}

// isExemptCallee matches the call against droppedErrExempt.
func isExemptCallee(info *types.Info, call *ast.CallExpr) bool {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return false
	}
	// Package-level function: pkg.Fn.
	if _, isID := sel.X.(*ast.Ident); isID {
		if path := pkgPathOf(info, sel.Sel); path != "" && droppedErrExempt[path+"."+sel.Sel.Name] {
			return true
		}
	}
	// Method: match the receiver's type string, ignoring pointerness so
	// both b.WriteByte and (&b).WriteByte resolve to the same key.
	if s, found := info.Selections[sel]; found && s.Recv() != nil {
		recv := strings.TrimPrefix(s.Recv().String(), "*")
		if droppedErrExempt[recv+"."+sel.Sel.Name] {
			return true
		}
	}
	return false
}

// checkAssignDrops flags assignments that send an error result to the
// blank identifier, in both the tuple form `v, _ := f()` and the
// parallel form `_ = f()`.
func checkAssignDrops(pkg *Package, s *ast.AssignStmt) []Finding {
	info := pkg.Info
	var out []Finding
	report := func() {
		out = append(out, Finding{
			Pos:      pkg.Fset.Position(s.Pos()),
			Analyzer: "droppederr",
			Message:  "error result assigned to _; handle it or annotate //sebdb:ignore-err <reason>",
		})
	}
	isBlank := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// v, _ := f() — map tuple positions to LHS.
		call, isCall := s.Rhs[0].(*ast.CallExpr)
		if !isCall || isExemptCallee(info, call) {
			return nil
		}
		tv, found := info.Types[call]
		if !found {
			return nil
		}
		tuple, isTuple := tv.Type.(*types.Tuple)
		if !isTuple || tuple.Len() != len(s.Lhs) {
			return nil
		}
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) && isBlank(s.Lhs[i]) {
				report()
				return out
			}
		}
		return nil
	}
	for i, lhs := range s.Lhs {
		if !isBlank(lhs) || i >= len(s.Rhs) {
			continue
		}
		call, isCall := s.Rhs[i].(*ast.CallExpr)
		if !isCall || isExemptCallee(info, call) {
			continue
		}
		if hasErr, results, ok := returnsError(info, call); ok && hasErr && results == 1 {
			report()
			return out
		}
	}
	return out
}
