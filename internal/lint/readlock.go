package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"sebdb/internal/lint/callgraph"
)

// ReadLock enforces the height-pinned read-view contract
// interprocedurally: no function reachable from a query read entry
// point — SELECT, TRACE, JOIN, GET BLOCK, EXPLAIN planning, thin-client
// VO generation — may acquire the engine mutex (core.Engine.mu). It is
// the one writer lock, held across a commit's prepare, install and
// group fsync, an index creation's backfill and DDL registration. Reads
// run against the published core.View precisely so they never wait on
// it; one e.mu acquisition smuggled into a helper shared with the write
// path would queue a read behind hashing, backfills and fsyncs, which
// no test notices until a profile does. The analyzer walks the call graph forward from the entry
// points and reports every engine-lock acquisition it can reach, with
// the witness call chain.
var ReadLock = &Analyzer{
	Name: "readlock",
	Doc:  "functions reachable from query read entry points must not acquire the engine mutex (escape: //sebdb:ignore-readlock reason: <why>)",
	Run:  runReadLock,
}

// readLockEntries are the read entry points the zero-engine-lock
// contract covers. EXPLAIN ANALYZE (execExplain/executeStmt) is
// deliberately absent: it re-executes the statement, and a traced
// INSERT legitimately reaches Submit and the commit pipeline.
var readLockEntries = []funcSpec{
	{"sebdb/internal/core", "Engine", "execSelect"},
	{"sebdb/internal/core", "Engine", "execTrace"},
	{"sebdb/internal/core", "Engine", "execJoin"},
	{"sebdb/internal/core", "Engine", "execGetBlock"},
	{"sebdb/internal/core", "Engine", "explainSelect"},
	{"sebdb/internal/node", "FullNode", "handleAuthQuery"},
	{"sebdb/internal/node", "FullNode", "handleAuthDigest"},
}

// readWalk is the forward walk from the read entry points: entryOf
// maps every reached function to the entry that reached it first,
// parent records one witness edge per function.
type readWalk struct {
	entryOf, parent map[*types.Func]*types.Func
}

// newReadWalk runs a forward BFS over the call graph from the entry
// points. Interface calls are widened to every in-module implementation
// by the graph, so routing a read through exec.Chain does not hide an
// engine-locking implementation. Seeding and expansion follow the
// graph's load order, so witness paths are deterministic.
func newReadWalk(graph *callgraph.Graph) *readWalk {
	w := &readWalk{entryOf: make(map[*types.Func]*types.Func), parent: make(map[*types.Func]*types.Func)}
	var queue []*types.Func
	for _, fn := range graph.Funcs() {
		if matchSpec(readLockEntries, fn) {
			w.entryOf[fn] = fn
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range graph.Callees(fn) {
			if _, seen := w.entryOf[callee]; seen {
				continue
			}
			w.entryOf[callee] = w.entryOf[fn]
			w.parent[callee] = fn
			queue = append(queue, callee)
		}
	}
	return w
}

// runReadLock reports every engine-mutex acquisition in the package's
// reached functions.
func runReadLock(p *Pass) []Finding {
	var out []Finding
	for _, fn := range p.graph.Funcs() {
		entry, reached := p.reads.entryOf[fn]
		if !reached || p.graph.Package(fn) != p.Package {
			continue
		}
		ast.Inspect(p.graph.Decl(fn).Body, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			op, ok := lockCall(p.Info, call)
			if !ok || !op.acquire || op.guard.Name() != "mu" || op.base == nil || !isNamed(p.Info.TypeOf(op.base), "sebdb/internal/core", "Engine") {
				return true
			}
			out = append(out, Finding{
				Pos:      p.Fset.Position(call.Pos()),
				Analyzer: "readlock",
				Message: fmt.Sprintf("%s acquires the engine lock (%s) on the read path from %s: %s",
					funcDisplay(fn), exprText(p.Fset, call.Fun), funcDisplay(entry), entryPath(p.reads.parent, fn)),
			})
			return true
		})
	}
	return out
}

// entryPath renders the witness call chain from the entry point down
// to fn.
func entryPath(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var rev []*types.Func
	for f := fn; f != nil; f = parent[f] {
		rev = append(rev, f)
	}
	parts := make([]string, len(rev))
	for i, f := range rev {
		parts[len(rev)-1-i] = funcDisplay(f)
	}
	return strings.Join(parts, " -> ")
}
