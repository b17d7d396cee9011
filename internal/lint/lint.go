package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"

	"sebdb/internal/lint/callgraph"
)

// Finding is one reported invariant violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and in
	// //sebdb:ignore-<name> directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run reports the violations in one package.
	Run func(p *Pass) []Finding
}

// Pass is what an analyzer sees: one package, plus the module-wide
// facts RunAll computes once for every package and analyzer.
type Pass struct {
	*Package
	// graph is the module's call graph; it also maps each declared
	// function back to its package.
	graph *callgraph.Graph
	// ioReach answers "does this function reach blocking I/O" (lockio).
	ioReach *callgraph.Reach
	// taint holds the interprocedural taint summaries (trusttaint).
	taint *trustTaint
	// reads is the forward walk from the query read entries (readlock).
	reads *readWalk
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Atomicwrite,
		DecodeBounds,
		DroppedErr,
		Determinism,
		LockCheck,
		LockIO,
		Obsclock,
		Rawlog,
		ReadLock,
		TrustTaint,
		U32Trunc,
	}
}

// RunAll runs every analyzer over every package, applies suppression
// directives, and returns the surviving findings sorted by position.
// Directives without an accepted reason, and reasoned directives that
// silence no finding, are reported as findings themselves.
func RunAll(pkgs []*Package) []Finding {
	graph := callgraph.Build(pkgs)
	mod := Pass{
		graph:   graph,
		ioReach: graph.Reaches(func(fn *types.Func) bool { return matchSpec(lockIOSinks, fn) }),
		taint:   newTrustTaint(graph),
		reads:   newReadWalk(graph),
	}
	var out []Finding
	for _, pkg := range pkgs {
		p := mod
		p.Package = pkg
		var found []Finding
		for _, a := range Analyzers() {
			found = append(found, a.Run(&p)...)
		}
		sups := collectSuppressions(pkg)
		used := make([]bool, len(sups))
		for _, f := range found {
			silenced := false
			for i, s := range sups {
				if s.reasonOK && s.suppresses(f.Analyzer, f.Pos) {
					silenced, used[i] = true, true
				}
			}
			if !silenced {
				out = append(out, f)
			}
		}
		for i, s := range sups {
			msg := ""
			switch {
			case !s.reasonOK && reasonClauseRequired[s.analyzer]:
				msg = "directive needs a `reason:` clause"
			case !s.reasonOK:
				msg = "directive needs a reason"
			case !used[i]:
				msg = "directive silences no finding; delete it"
			default:
				continue
			}
			out = append(out, Finding{Pos: s.directive, Analyzer: s.analyzer,
				Message: fmt.Sprintf("%s%s %s", directivePrefix, s.analyzer, msg)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer+a.Message < b.Analyzer+b.Message
	})
	return out
}
