package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The lock model lockcheck, lockio and readlock share: isGuard is the
// one answer to "is this a guard", lockCall the one recogniser of
// acquire and release calls.

// isGuard reports whether obj is a guard: a sync.Mutex or sync.RWMutex
// (or a pointer to one) variable or field named mu or ending in Mu
// (poolMu, connMu, ...).
func isGuard(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && (v.Name() == "mu" || strings.HasSuffix(v.Name(), "Mu")) && isNamed(v.Type(), "sync", "Mutex", "RWMutex")
}

// lockOp is one recognised acquisition or release of a guard.
type lockOp struct {
	// base is what the guard is a field of (e in e.mu), nil for a guard
	// variable.
	base    ast.Expr
	guard   types.Object
	acquire bool
}

// text renders the guarded expression as the source names it: "e.mu",
// "mu".
func (op lockOp) text(fset *token.FileSet) string {
	if op.base == nil {
		return op.guard.Name()
	}
	return exprText(fset, op.base) + "." + op.guard.Name()
}

// lockCall recognises g.Lock/RLock/Unlock/RUnlock() on a guard g, and
// the receiver helpers x.lock()/x.rlock() — the contention-counting
// wrappers the caches put around x.mu.Lock — as acquisitions of x.mu.
func lockCall(info *types.Info, e ast.Expr) (lockOp, bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return lockOp{}, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return lockOp{}, false
	}
	switch name := sel.Sel.Name; name {
	case "lock", "rlock":
		s, found := info.Selections[sel]
		if !found || s.Kind() != types.MethodVal {
			return lockOp{}, false
		}
		mu, _, _ := types.LookupFieldOrMethod(s.Recv(), true, s.Obj().Pkg(), "mu")
		return lockOp{base: sel.X, guard: mu, acquire: true}, isGuard(mu)
	case "Lock", "RLock", "Unlock", "RUnlock":
		op := lockOp{acquire: name == "Lock" || name == "RLock"}
		switch g := sel.X.(type) {
		case *ast.Ident:
			op.guard = object(info, g)
		case *ast.SelectorExpr:
			op.base, op.guard = g.X, object(info, g.Sel)
		}
		return op, isGuard(op.guard)
	}
	return lockOp{}, false
}
