package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// decoderPkgPath is the package whose Decoder produces attacker-
// controlled counts.
const decoderPkgPath = "sebdb/internal/types"

// DecodeBounds enforces the wire-decoding invariant: a count read from
// a types.Decoder (Uint32/Uint64/Uvarint) may only drive a loop bound or slice
// allocation after a Remaining() bounds check. Without the check, a
// corrupt or hostile frame carrying a huge count makes the decoder
// allocate gigabytes before the first element read fails (the classic
// unchecked-deserialization DoS the paper's verifiability story rules
// out).
var DecodeBounds = &Analyzer{
	Name: "decodebounds",
	Doc:  "decoder counts must pass a Remaining() check before sizing loops or allocations",
	Run:  runDecodeBounds,
}

func runDecodeBounds(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		funcBodies(f, func(fd *ast.FuncDecl) {
			out = append(out, checkDecodeBoundsFunc(p.Package, fd.Body)...)
		})
	}
	return out
}

// isDecoderCountCall reports whether call reads a count from a
// types.Decoder: d.Uint32(), d.Uint64() or d.Uvarint() with d of type
// *sebdb/internal/types.Decoder (or, when type information is missing,
// a receiver created by NewDecoder in the same function).
func isDecoderCountCall(pkg *Package, call *ast.CallExpr, decoderIdents map[types.Object]bool) bool {
	recv, name, ok := selectorCall(call)
	if !ok || (name != "Uint32" && name != "Uint64" && name != "Uvarint") {
		return false
	}
	if tv, found := pkg.Info.Types[recv]; found && tv.Type != nil {
		return isNamed(tv.Type, decoderPkgPath, "Decoder")
	}
	// Degraded mode: receiver identifier previously assigned from
	// NewDecoder.
	if id, isID := recv.(*ast.Ident); isID {
		if o := object(pkg.Info, id); o != nil {
			return decoderIdents[o]
		}
	}
	return false
}

// checkDecodeBoundsFunc walks one function body in source order,
// tracking decoder count variables, the guards that sanctify them, and
// the loop bounds / allocations that consume them.
func checkDecodeBoundsFunc(pkg *Package, body *ast.BlockStmt) []Finding {
	info := pkg.Info
	var out []Finding

	// Pass 1: collect receivers of NewDecoder results for degraded-mode
	// matching, and every count variable with its birth position.
	decoderIdents := make(map[types.Object]bool)
	type countVar struct {
		obj     types.Object
		name    string
		born    token.Pos
		guarded token.Pos // earliest position after which uses are safe
	}
	var counts []*countVar
	ast.Inspect(body, func(n ast.Node) bool {
		assign, isAssign := n.(*ast.AssignStmt)
		if !isAssign || len(assign.Rhs) != 1 {
			return true
		}
		call, isCall := assign.Rhs[0].(*ast.CallExpr)
		if !isCall {
			return true
		}
		if _, name, ok := selectorCall(call); ok && name == "NewDecoder" {
			if id, isID := assign.Lhs[0].(*ast.Ident); isID {
				if o := object(info, id); o != nil {
					decoderIdents[o] = true
				}
			}
			return true
		}
		if !isDecoderCountCall(pkg, call, decoderIdents) {
			return true
		}
		if id, isID := assign.Lhs[0].(*ast.Ident); isID && id.Name != "_" {
			counts = append(counts, &countVar{
				obj:  object(info, id),
				name: id.Name,
				born: assign.Pos(),
			})
		}
		return true
	})
	if len(counts) == 0 {
		return nil
	}

	// Pass 2: find guards — any if-condition (or comparison) mentioning
	// both the count variable and a Remaining() call.
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, isIf := n.(*ast.IfStmt)
		if !isIf {
			return true
		}
		mentionsRemaining := false
		ast.Inspect(ifStmt.Cond, func(m ast.Node) bool {
			if call, isCall := m.(*ast.CallExpr); isCall {
				if _, name, ok := selectorCall(call); ok && name == "Remaining" {
					mentionsRemaining = true
				}
			}
			return !mentionsRemaining
		})
		if !mentionsRemaining {
			return true
		}
		for _, cv := range counts {
			if ifStmt.Pos() > cv.born && containsIdentObj(info, ifStmt.Cond, cv.obj, cv.name) {
				if cv.guarded == token.NoPos || ifStmt.Pos() < cv.guarded {
					cv.guarded = ifStmt.Pos()
				}
			}
		}
		return true
	})

	// Pass 3: flag risky uses before the guard.
	flag := func(pos token.Pos, cv *countVar, what string) {
		out = append(out, Finding{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: "decodebounds",
			Message: fmt.Sprintf("%s uses decoder count %q without a prior Remaining() bounds check",
				what, cv.name),
		})
	}
	safe := func(cv *countVar, use token.Pos) bool {
		return cv.guarded != token.NoPos && cv.guarded < use
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if id, isID := s.Fun.(*ast.Ident); isID && id.Name == "make" && len(s.Args) >= 2 {
				for _, arg := range s.Args[1:] {
					for _, cv := range counts {
						if s.Pos() > cv.born && containsIdentObj(info, arg, cv.obj, cv.name) && !safe(cv, s.Pos()) {
							flag(s.Pos(), cv, "make")
						}
					}
				}
			}
		case *ast.ForStmt:
			if s.Cond == nil {
				return true
			}
			for _, cv := range counts {
				if s.Pos() > cv.born && containsIdentObj(info, s.Cond, cv.obj, cv.name) && !safe(cv, s.Pos()) {
					flag(s.Pos(), cv, "loop bound")
				}
			}
		}
		return true
	})
	return out
}
