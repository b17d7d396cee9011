package lint

import (
	"fmt"
	"go/ast"
	"slices"
	"strings"
)

// scopedRule bans imports or package-level calls inside package
// subtrees. Every "package under these prefixes must not import or call
// X" invariant is one row of scopedRules; the analyzer named by the row
// reports its findings, so directives and output lines keep the
// analyzer's name.
type scopedRule struct {
	analyzer string
	// prefixes are the covered package subtrees.
	prefixes []string
	// imports are banned import paths.
	imports []string
	// pkg and funcs name the banned calls: pkg.F for F in funcs, or
	// every function of pkg when funcs is empty.
	pkg   string
	funcs []string
	// arg0, when set, narrows the ban to calls whose first argument is
	// that package-level selector ("os.Stderr").
	arg0 string
	// message formats a finding from the banned import path or function
	// name.
	message string
}

var (
	// Consensus decides the one order every replica must reproduce, and
	// merkle/mbtree digests must be recomputable byte-for-byte during
	// replay and verification: clocks and randomness arrive through
	// injected options.
	deterministicPrefixes = []string{
		"sebdb/internal/consensus",
		"sebdb/internal/merkle",
		"sebdb/internal/mbtree",
	}
	// The whole internal tree plus the two long-running binaries log
	// through obs.Logger. The other commands (sebdb-cli's REPL,
	// bchainbench's reports, sebdb-vet's findings) write human output to
	// their streams by design.
	structuredLogPrefixes = []string{
		"sebdb/internal",
		"sebdb/cmd/sebdb-server",
		"sebdb/cmd/sebdb-thin",
	}
)

// scopedRules is the table behind determinism, obsclock, rawlog and
// atomicwrite's direct-os ban.
var scopedRules = []scopedRule{
	{
		analyzer: "determinism", prefixes: deterministicPrefixes,
		imports: []string{"math/rand", "math/rand/v2"},
		message: "deterministic package imports %q; inject an rng seeded by the caller instead",
	},
	{
		analyzer: "determinism", prefixes: deterministicPrefixes,
		pkg: "time", funcs: []string{"Now"},
		message: "deterministic package calls time.%s; take the timestamp from an injected clock",
	},
	// Timing in the instrumented packages comes from the injected
	// clock.Source (obs.Registry.Now, engine Config.Clock, consensus
	// Options.Now), so EXPLAIN ANALYZE traces and latency histograms are
	// reproducible under a test clock; a direct read splits a trace
	// across two time bases. Durations, tickers and timers stay fine.
	{
		analyzer: "obsclock",
		prefixes: []string{
			"sebdb/internal/obs",
			"sebdb/internal/exec",
			"sebdb/internal/parallel",
			"sebdb/internal/storage",
			"sebdb/internal/cache",
			"sebdb/internal/core",
			"sebdb/internal/network",
			"sebdb/internal/thinclient",
			"sebdb/internal/replica",
		},
		pkg: "time", funcs: []string{"Now", "Since"},
		message: "instrumented package calls time.%s; route timing through the injected clock.Source",
	},
	// Raw prints carry no level, component or fields and never reach the
	// /debug/log ring. Wiring os.Stderr in as a logger sink is fine;
	// printing to it is not.
	{
		analyzer: "rawlog", prefixes: structuredLogPrefixes,
		pkg:     "log",
		message: "raw log.%s call; emit a structured event through obs.Logger instead",
	},
	{
		analyzer: "rawlog", prefixes: structuredLogPrefixes,
		pkg: "fmt", funcs: []string{"Fprint", "Fprintf", "Fprintln"}, arg0: "os.Stderr",
		message: "fmt.%s to os.Stderr; emit a structured event through obs.Logger instead",
	},
	// The crash-tested subtrees route file I/O through the injected
	// faultfs.FS: a direct os call is a mutation the fault-injection
	// crash matrix can neither tear nor count. Pure predicates
	// (os.IsNotExist) and constants (os.O_CREATE) stay fine.
	{
		analyzer: "atomicwrite",
		prefixes: []string{"sebdb/internal/storage", "sebdb/internal/snapshot"},
		pkg:      "os",
		funcs: []string{
			"Open", "OpenFile", "Create", "CreateTemp",
			"ReadFile", "WriteFile", "ReadDir",
			"Mkdir", "MkdirAll", "MkdirTemp",
			"Rename", "Remove", "RemoveAll",
			"Truncate", "Stat", "Lstat",
			"Chmod", "Chtimes", "Link", "Symlink",
		},
		message: "crash-tested package calls os.%s directly; route file I/O through the injected faultfs.FS",
	},
}

// Determinism forbids ambient nondeterminism — time.Now and the
// globally seeded math/rand — inside consensus and digest code.
var Determinism = scopedAnalyzer("determinism",
	"consensus/merkle/mbtree code must not call time.Now or import math/rand; inject a clock/rng")

// Obsclock forbids direct wall-clock reads in the instrumented
// packages.
var Obsclock = scopedAnalyzer("obsclock",
	"instrumented packages must not call time.Now/time.Since; use the injected clock.Source")

// Rawlog forbids raw diagnostic output — the stdlib log package and
// fmt.Fprint* aimed at os.Stderr — in the structured-logging trees.
var Rawlog = scopedAnalyzer("rawlog",
	"internal packages and the server binaries must log through obs.Logger, not stdlib log or fmt.Fprint*(os.Stderr, ...)")

func scopedAnalyzer(name, doc string) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, Run: func(p *Pass) []Finding { return runScoped(p, name) }}
}

// under reports whether the package path lies in one of the subtrees.
func under(path string, prefixes ...string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// runScoped reports the package's violations of the analyzer's rows.
func runScoped(p *Pass, analyzer string) []Finding {
	var out []Finding
	for _, r := range scopedRules {
		if r.analyzer != analyzer || !under(p.Path, r.prefixes...) {
			continue
		}
		for _, f := range p.Files {
			out = append(out, r.check(p.Package, f)...)
		}
	}
	return out
}

// check applies one rule to one file.
func (r scopedRule) check(pkg *Package, f *ast.File) []Finding {
	var out []Finding
	report := func(n ast.Node, name string) {
		out = append(out, Finding{Pos: pkg.Fset.Position(n.Pos()), Analyzer: r.analyzer, Message: fmt.Sprintf(r.message, name)})
	}
	for _, imp := range f.Imports {
		if path := strings.Trim(imp.Path.Value, `"`); slices.Contains(r.imports, path) {
			report(imp, path)
		}
	}
	if r.pkg == "" {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		name, ok := pkgMember(pkg, f, call.Fun, r.pkg)
		if !ok || (len(r.funcs) > 0 && !slices.Contains(r.funcs, name)) {
			return true
		}
		if r.arg0 != "" {
			argPkg, argName, _ := strings.Cut(r.arg0, ".")
			if len(call.Args) == 0 {
				return true
			}
			if got, ok := pkgMember(pkg, f, call.Args[0], argPkg); !ok || got != argName {
				return true
			}
		}
		report(call, name)
		return true
	})
	return out
}

// pkgMember matches e as path.Name — a selector on the name the file
// imports path under — and returns Name. Type information, when
// present, must agree, so a local variable shadowing the package name
// does not match.
func pkgMember(pkg *Package, f *ast.File, e ast.Expr, path string) (string, bool) {
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	local, imported := importsPackage(f, path)
	id, isID := sel.X.(*ast.Ident)
	if !imported || !isID || id.Name != local {
		return "", false
	}
	if got := pkgPathOf(pkg.Info, sel.Sel); got != "" && got != path {
		return "", false
	}
	return sel.Sel.Name, true
}
