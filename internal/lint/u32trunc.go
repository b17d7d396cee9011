package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// U32Trunc flags uint32(len(x)) / uint32(cap(x)) conversions with no
// visible truncation guard. SEBDB's wire format length-prefixes
// everything with uint32; on 64-bit hosts a >4 GiB slice silently
// truncates its prefix and desynchronises every decoder downstream.
// A conversion is considered guarded when the enclosing function
// compares the same len/cap expression (or the conversion itself)
// against a bound.
var U32Trunc = &Analyzer{
	Name: "u32trunc",
	Doc:  "uint32(len(x)) needs a truncation guard comparing len(x) against a bound (escape: //sebdb:ignore-u32 <reason>)",
	Run:  runU32Trunc,
}

func runU32Trunc(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		funcBodies(f, func(fd *ast.FuncDecl) {
			out = append(out, checkU32Func(p.Package, fd.Body)...)
		})
	}
	return out
}

// lenCapArg returns the rendered argument of a len()/cap() call inside
// e ("" when e contains none).
func lenCapArg(pkg *Package, e ast.Expr) string {
	arg := ""
	ast.Inspect(e, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		id, isID := call.Fun.(*ast.Ident)
		if isID && (id.Name == "len" || id.Name == "cap") && len(call.Args) == 1 {
			arg = id.Name + "(" + exprText(pkg.Fset, call.Args[0]) + ")"
			return false
		}
		return true
	})
	return arg
}

func checkU32Func(pkg *Package, body *ast.BlockStmt) []Finding {
	// Collect every len/cap expression that appears under a comparison
	// operator anywhere in the function — those are the guards.
	guardedLens := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		bin, isBin := n.(*ast.BinaryExpr)
		if !isBin {
			return true
		}
		switch bin.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{bin.X, bin.Y} {
			if arg := lenCapArg(pkg, side); arg != "" {
				guardedLens[arg] = true
			}
		}
		return true
	})

	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || len(call.Args) != 1 {
			return true
		}
		id, isID := call.Fun.(*ast.Ident)
		if !isID || id.Name != "uint32" {
			return true
		}
		// Must be the builtin type, not a local shadow.
		if path := pkgPathOf(pkg.Info, id); path != "" {
			return true
		}
		arg := lenCapArg(pkg, call.Args[0])
		if arg == "" || guardedLens[arg] {
			return true
		}
		out = append(out, Finding{
			Pos:      pkg.Fset.Position(call.Pos()),
			Analyzer: "u32trunc",
			Message: fmt.Sprintf("uint32(%s) may truncate; guard %s against the wire limit first",
				arg, arg),
		})
		return true
	})
	return out
}
