package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"sebdb/internal/lint/callgraph"
)

// TrustTaint enforces the catch-up trust model interprocedurally: no
// peer-derived value (bytes off the wire, decoded wire messages) may
// reach engine-state installation — checkpoint persist, definition
// installation, index creation, index/ALI appends, chain appends —
// without passing a verification sanitizer (signature check, block
// validation, Merkle/CRC comparison). This is the bug
// class of installing a peer's checkpoint unverified
// (snapshot.Dir.Install, since removed by hand); the analyzer keeps it
// from coming back.
var TrustTaint = &Analyzer{
	Name: "trusttaint",
	Doc:  "peer-derived data must pass a verification sanitizer before reaching state installation (escape: //sebdb:ignore-trusttaint reason: <why>)",
	Run:  runTrustTaint,
}

// taintSources produce peer-controlled bytes.
var taintSources = []funcSpec{
	{"sebdb/internal/network", "Client", "Call"},
	{"sebdb/internal/network", "", "ReadFrame"},
	{"net", "Conn", "Read"},
}

// taintSanitizers are the verification chain: a value passed through
// one (argument or receiver) is considered verified, and taint does
// not propagate into a sanitizer's body.
var taintSanitizers = []funcSpec{
	{"sebdb/internal/types", "BlockHeader", "VerifySig"},
	{"sebdb/internal/types", "Block", "Validate"},
	{"sebdb/internal/types", "Block", "ValidateWorkers"},
	{"sebdb/internal/core", "Engine", "ApplyBlock"},
	{"sebdb/internal/merkle", "", "Root"},
	{"hash/crc32", "", "ChecksumIEEE"},
}

// taintSinks install engine state.
var taintSinks = []funcSpec{
	{"sebdb/internal/snapshot", "Dir", "Write"},
	{"sebdb/internal/core", "Engine", "restoreCheckpoint"},
	{"sebdb/internal/core", "Engine", "CreateIndex"},
	{"sebdb/internal/core", "Engine", "CreateAuthIndex"},
	{"sebdb/internal/core", "Engine", "installDefs"},
	{"sebdb/internal/storage", "Store", "AppendNoSync"},
	{"sebdb/internal/index/layered", "Index", "AppendBlock"},
	{"sebdb/internal/index/layered", "Index", "AppendRun"},
	{"sebdb/internal/auth", "ALI", "AppendBlock"},
	{"sebdb/internal/auth", "ALI", "AppendRun"},
}

// handlerRegistrars take a peer-facing handler function whose first
// parameter is a raw wire payload.
var handlerRegistrars = []funcSpec{
	{"sebdb/internal/network", "Server", "Handle"},
	{"sebdb/internal/network", "Server", "HandleStream"},
}

const sourceBit = uint64(1) // mask bit 0: derived from a root source

// maxSlots caps how many parameters a summary tracks (mask bits 1..63).
const maxSlots = 62

// taintSummary is one function's interprocedural taint behaviour.
type taintSummary struct {
	// retMask is the union taint of every return value, expressed in
	// the function's own slots: sourceBit when derived from a root
	// source, bit i+1 when derived from slot i.
	retMask uint64
	// concrete marks slots observed carrying source-derived data at
	// some call site; origin records one witness per slot.
	concrete []bool
	origin   []string
}

// trustTaint is the module-wide analysis state: the summaries of every
// declared function, with concrete taint propagated from the roots.
type trustTaint struct {
	graph     *callgraph.Graph
	summaries map[*types.Func]*taintSummary
}

// slotObjects returns the taint slots of a declared function: regular
// parameters first, then the receiver.
func slotObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	appendField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			appendField(f)
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			appendField(f)
		}
	}
	if len(out) > maxSlots {
		out = out[:maxSlots]
	}
	return out
}

// newTrustTaint computes summaries to fixpoint, then propagates
// concrete taint from the root sources. runTrustTaint reports the sink
// calls per package.
func newTrustTaint(g *callgraph.Graph) *trustTaint {
	tt := &trustTaint{graph: g, summaries: make(map[*types.Func]*taintSummary)}
	// Iterate in the graph's load order so fixpoint tie-breaks (witness
	// origins in particular) are deterministic across runs.
	funcs := g.Funcs()
	for _, fn := range funcs {
		n := len(slotObjects(g.Package(fn).Info, g.Decl(fn)))
		tt.summaries[fn] = &taintSummary{concrete: make([]bool, n), origin: make([]string, n)}
	}

	// Phase A: symbolic return summaries to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if ret := tt.analyze(fn).retMask; ret != tt.summaries[fn].retMask {
				tt.summaries[fn].retMask = ret
				changed = true
			}
		}
	}

	// Phase B: concrete taint roots — wire handlers registered with the
	// network server get a peer-controlled first parameter.
	for _, fn := range funcs {
		tt.markHandlerRegistrations(fn)
	}
	// Propagate concrete taint through call arguments to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if tt.propagate(fn) {
				changed = true
			}
		}
	}
	return tt
}

// runTrustTaint reports the package's sink calls with concretely
// tainted arguments (phase C).
func runTrustTaint(p *Pass) []Finding {
	var out []Finding
	for _, fn := range p.graph.Funcs() {
		if p.graph.Package(fn) == p.Package {
			out = append(out, p.taint.report(fn)...)
		}
	}
	return out
}

// taintEnv is the per-function flow-insensitive evaluation state.
type taintEnv struct {
	tt        *trustTaint
	fn        *types.Func
	pkg       *Package
	decl      *ast.FuncDecl
	slots     map[types.Object]int
	slotList  []types.Object
	masks     map[types.Object]uint64
	sanitized map[types.Object]bool
	retMask   uint64
}

// analyze evaluates the body of a declared function, returning the
// stabilised environment.
func (tt *trustTaint) analyze(fn *types.Func) *taintEnv {
	fd, pkg := tt.graph.Decl(fn), tt.graph.Package(fn)
	env := &taintEnv{
		tt:        tt,
		fn:        fn,
		pkg:       pkg,
		decl:      fd,
		slots:     make(map[types.Object]int),
		masks:     make(map[types.Object]uint64),
		sanitized: make(map[types.Object]bool),
	}
	env.slotList = slotObjects(pkg.Info, fd)
	for i, obj := range env.slotList {
		env.slots[obj] = i
	}
	// Sanitizer applications first: a value handed to the verification
	// chain anywhere in the function is treated as verified throughout
	// (flow-insensitive — removing the verification re-flags the flow).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if firstMatch(taintSanitizers, env.tt.graph.CalleesAt(pkg.Info, call)) != nil {
			for _, arg := range call.Args {
				if base := baseIdentObj(pkg.Info, arg); base != nil {
					env.sanitized[base] = true
				}
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if base := baseIdentObj(pkg.Info, sel.X); base != nil {
					env.sanitized[base] = true
				}
			}
		}
		return true
	})
	// Assignment fixpoint.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var rhsMask uint64
					if len(n.Rhs) == len(n.Lhs) {
						rhsMask = env.exprMask(n.Rhs[i])
					} else if len(n.Rhs) == 1 {
						rhsMask = env.exprMask(n.Rhs[0])
					}
					if env.taintObj(lhs, rhsMask) {
						changed = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						var rhsMask uint64
						if len(vs.Values) == len(vs.Names) {
							rhsMask = env.exprMask(vs.Values[i])
						} else if len(vs.Values) == 1 {
							rhsMask = env.exprMask(vs.Values[0])
						}
						if obj := env.pkg.Info.Defs[name]; obj != nil && rhsMask != 0 {
							if env.masks[obj]|rhsMask != env.masks[obj] {
								env.masks[obj] |= rhsMask
								changed = true
							}
						}
					}
				}
			case *ast.RangeStmt:
				m := env.exprMask(n.X)
				if m != 0 {
					if n.Key != nil && env.taintObj(n.Key, m) {
						changed = true
					}
					if n.Value != nil && env.taintObj(n.Value, m) {
						changed = true
					}
				}
			case *ast.ReturnStmt:
				var m uint64
				if len(n.Results) == 0 {
					// Naked return: union the named results.
					if env.decl.Type.Results != nil {
						for _, f := range env.decl.Type.Results.List {
							for _, name := range f.Names {
								if obj := env.pkg.Info.Defs[name]; obj != nil {
									m |= env.masks[obj]
								}
							}
						}
					}
				}
				for _, res := range n.Results {
					m |= env.exprMask(res)
				}
				if env.retMask|m != env.retMask {
					env.retMask |= m
					changed = true
				}
			}
			return true
		})
	}
	return env
}

// taintObj merges mask into the object behind one assignment target.
func (env *taintEnv) taintObj(lhs ast.Expr, mask uint64) bool {
	if mask == 0 {
		return false
	}
	obj := baseIdentObj(env.pkg.Info, lhs)
	if obj == nil {
		return false
	}
	if env.masks[obj]|mask == env.masks[obj] {
		return false
	}
	env.masks[obj] |= mask
	return true
}

// exprMask computes the taint mask of one expression in the
// function's own slots.
func (env *taintEnv) exprMask(e ast.Expr) uint64 {
	switch e := e.(type) {
	case *ast.Ident:
		obj := object(env.pkg.Info, e)
		if obj == nil || env.sanitized[obj] {
			return 0
		}
		m := env.masks[obj]
		if slot, ok := env.slots[obj]; ok {
			m |= uint64(1) << (slot + 1)
		}
		return m
	case *ast.SelectorExpr:
		// Field access or method value on a tainted base stays tainted;
		// package-qualified names are clean.
		if base := baseIdentObj(env.pkg.Info, e.X); base != nil {
			return env.exprMask(e.X)
		}
		return 0
	case *ast.IndexExpr:
		return env.exprMask(e.X) | env.exprMask(e.Index)
	case *ast.IndexListExpr:
		return env.exprMask(e.X)
	case *ast.SliceExpr:
		return env.exprMask(e.X)
	case *ast.StarExpr:
		return env.exprMask(e.X)
	case *ast.ParenExpr:
		return env.exprMask(e.X)
	case *ast.UnaryExpr:
		return env.exprMask(e.X)
	case *ast.BinaryExpr:
		return env.exprMask(e.X) | env.exprMask(e.Y)
	case *ast.TypeAssertExpr:
		return env.exprMask(e.X)
	case *ast.CompositeLit:
		var m uint64
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				m |= env.exprMask(kv.Value)
			} else {
				m |= env.exprMask(elt)
			}
		}
		return m
	case *ast.CallExpr:
		return env.callMask(e)
	case *ast.FuncLit:
		return 0
	default:
		return 0
	}
}

// callMask computes the taint of one call's results.
func (env *taintEnv) callMask(call *ast.CallExpr) uint64 {
	// Conversions carry their operand's taint.
	if tv, ok := env.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return env.exprMask(call.Args[0])
		}
		return 0
	}
	callees := env.tt.graph.CalleesAt(env.pkg.Info, call)
	if firstMatch(taintSources, callees) != nil {
		return sourceBit
	}
	if firstMatch(taintSanitizers, callees) != nil {
		return 0
	}
	recvMask := env.recvMask(call)
	argUnion := recvMask
	for _, arg := range call.Args {
		argUnion |= env.exprMask(arg)
	}
	if len(callees) == 0 {
		// Builtins (append, copy, ...) and unresolved function values:
		// results carry the union of the inputs.
		return argUnion
	}
	var m uint64
	resolvedAny := false
	for _, callee := range callees {
		sum, isModule := env.tt.summaries[callee]
		if !isModule {
			continue
		}
		resolvedAny = true
		ret := sum.retMask
		if ret&sourceBit != 0 {
			m |= sourceBit
		}
		// Substitute callee slots with this call site's argument masks.
		for i, argMask := range env.callSlotMasks(call, recvMask, callee) {
			if ret&(uint64(1)<<(i+1)) != 0 {
				m |= argMask
			}
		}
	}
	if !resolvedAny {
		// Imported function with no analysable body: conservative union.
		return argUnion
	}
	return m
}

// callSlotMasks maps one call site's arguments onto the callee's slot
// order (parameters first, then receiver). Variadic overflow arguments
// fold into the last parameter's slot.
func (env *taintEnv) callSlotMasks(call *ast.CallExpr, recvMask uint64, callee *types.Func) []uint64 {
	calleeDecl := env.tt.graph.Decl(callee)
	nParams := 0
	if calleeDecl.Type.Params != nil {
		for _, f := range calleeDecl.Type.Params.List {
			nParams += len(f.Names)
			if len(f.Names) == 0 {
				nParams++
			}
		}
	}
	slots := len(slotObjects(env.tt.graph.Package(callee).Info, calleeDecl))
	out := make([]uint64, slots)
	for i, arg := range call.Args {
		idx := i
		if idx >= nParams {
			idx = nParams - 1
		}
		if idx >= 0 && idx < slots {
			out[idx] |= env.exprMask(arg)
		}
	}
	if calleeDecl.Recv != nil && slots > 0 && slots == nParams+1 {
		out[slots-1] |= recvMask
	}
	return out
}

// recvMask is the taint of a method call's receiver, 0 for other
// calls.
func (env *taintEnv) recvMask(call *ast.CallExpr) uint64 {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isSel := env.pkg.Info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			return env.exprMask(sel.X)
		}
	}
	return 0
}

// concrete reports whether a mask is source-derived under the
// function's currently known concrete slot taints.
func (tt *trustTaint) concreteMask(fn *types.Func, m uint64) bool {
	if m&sourceBit != 0 {
		return true
	}
	sum := tt.summaries[fn]
	for i := range sum.concrete {
		if sum.concrete[i] && m&(uint64(1)<<(i+1)) != 0 {
			return true
		}
	}
	return false
}

// markHandlerRegistrations roots concrete taint at wire handlers.
func (tt *trustTaint) markHandlerRegistrations(fn *types.Func) {
	fd, pkg := tt.graph.Decl(fn), tt.graph.Package(fn)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 || firstMatch(handlerRegistrars, tt.graph.CalleesAt(pkg.Info, call)) == nil {
			return true
		}
		handler := handlerFunc(pkg.Info, call.Args[1])
		if handler == nil {
			return true
		}
		if sum, ok := tt.summaries[handler]; ok && len(sum.concrete) > 0 {
			if !sum.concrete[0] {
				sum.concrete[0] = true
				sum.origin[0] = fmt.Sprintf("registered as wire handler at %s", shortPos(pkg.Fset.Position(call.Pos())))
			}
		}
		return true
	})
}

// handlerFunc resolves the function a handler-registration argument
// refers to (a method value or a named function).
func handlerFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// propagate pushes fn's concrete taint into its callees' slots.
// Sanitizers are barriers: verified values enter them clean.
func (tt *trustTaint) propagate(fn *types.Func) bool {
	env := tt.analyze(fn)
	changed := false
	ast.Inspect(env.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callees := tt.graph.CalleesAt(env.pkg.Info, call)
		if firstMatch(taintSanitizers, callees) != nil || firstMatch(taintSources, callees) != nil {
			return true
		}
		recvMask := env.recvMask(call)
		for _, callee := range callees {
			sum, isModule := tt.summaries[callee]
			if !isModule {
				continue
			}
			for i, argMask := range env.callSlotMasks(call, recvMask, callee) {
				if i < len(sum.concrete) && !sum.concrete[i] && tt.concreteMask(fn, argMask) {
					sum.concrete[i] = true
					sum.origin[i] = fmt.Sprintf("peer-derived via %s at %s", fn.Name(), shortPos(env.pkg.Fset.Position(call.Pos())))
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// report flags fn's sink calls whose arguments are concretely
// peer-derived and unsanitized.
func (tt *trustTaint) report(fn *types.Func) []Finding {
	var out []Finding
	env := tt.analyze(fn)
	ast.Inspect(env.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sink := firstMatch(taintSinks, tt.graph.CalleesAt(env.pkg.Info, call))
		if sink == nil {
			return true
		}
		for _, arg := range call.Args {
			m := env.exprMask(arg)
			if !tt.concreteMask(fn, m) {
				continue
			}
			origin := tt.witness(fn, m)
			out = append(out, Finding{
				Pos:      env.pkg.Fset.Position(call.Pos()),
				Analyzer: "trusttaint",
				Message: fmt.Sprintf("%s installs peer-derived data via %s without a verification sanitizer (%s)",
					fn.Name(), funcDisplay(sink), origin),
			})
			break
		}
		return true
	})
	return out
}

// shortPos renders a position as base-filename:line, keeping messages
// independent of the checkout path.
func shortPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// witness describes where the taint entered.
func (tt *trustTaint) witness(fn *types.Func, m uint64) string {
	if m&sourceBit != 0 {
		return "read off the wire in this function"
	}
	sum := tt.summaries[fn]
	for i := range sum.concrete {
		if sum.concrete[i] && m&(uint64(1)<<(i+1)) != 0 && sum.origin[i] != "" {
			return sum.origin[i]
		}
	}
	return "peer-derived"
}
