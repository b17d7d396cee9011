package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture module under testdata/src/sebdb marks each seeded
// violation with a trailing "want:<analyzer>" comment; the tests demand
// an exact multiset match between those marks and RunAll's output.
var wantRe = regexp.MustCompile(`want:([a-z0-9]+)`)

type findingKey struct {
	file     string
	line     int
	analyzer string
}

func loadFixture(t *testing.T) []*Package {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", "src", "sebdb"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("fixture module loaded no packages")
	}
	return pkgs
}

// fixtureFindings returns the actual and expected finding multisets,
// leaving out baddirective.go (covered by its own test below).
func fixtureFindings(t *testing.T) (got, want map[findingKey]int) {
	t.Helper()
	pkgs := loadFixture(t)
	got = make(map[findingKey]int)
	for _, f := range RunAll(pkgs) {
		if filepath.Base(f.Pos.Filename) == "baddirective.go" {
			continue
		}
		got[findingKey{filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer}]++
	}
	want = make(map[findingKey]int)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := pkg.Fset.Position(c.Pos())
						want[findingKey{filepath.Base(pos.Filename), pos.Line, m[1]}]++
					}
				}
			}
		}
	}
	return got, want
}

func TestFixtureFindingsMatchWantComments(t *testing.T) {
	got, want := fixtureFindings(t)
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s:%d: want %d %s finding(s), got %d", k.file, k.line, n, k.analyzer, got[k])
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Errorf("%s:%d: unexpected %s finding (count %d, want %d)", k.file, k.line, k.analyzer, n, want[k])
		}
	}
}

// Each analyzer must flag at least one seeded violation — a vacuous
// analyzer would otherwise pass the comparison above with zero marks,
// and a new analyzer cannot join the suite without a fixture.
func TestEveryAnalyzerFlagsSeededViolation(t *testing.T) {
	got, _ := fixtureFindings(t)
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			for k := range got {
				if k.analyzer == a.Name {
					return
				}
			}
			t.Errorf("analyzer %s flagged nothing in the fixture module", a.Name)
		})
	}
}

// A directive without a reason is reported, and the call it decorates
// stays flagged.
func TestReasonlessDirectiveIsReported(t *testing.T) {
	pkgs := loadFixture(t)
	var needsReason, stillFlagged bool
	for _, f := range RunAll(pkgs) {
		if filepath.Base(f.Pos.Filename) != "baddirective.go" {
			continue
		}
		if f.Analyzer != "droppederr" {
			t.Errorf("baddirective.go: unexpected %s finding: %s", f.Analyzer, f.Message)
			continue
		}
		if strings.Contains(f.Message, "needs a reason") {
			needsReason = true
		} else {
			stillFlagged = true
		}
	}
	if !needsReason {
		t.Error("reason-less //sebdb:ignore-err directive was not reported")
	}
	if !stillFlagged {
		t.Error("call under a reason-less directive was suppressed")
	}
}

func TestDirectiveParsing(t *testing.T) {
	for _, tc := range []struct {
		text             string
		analyzer, reason string
		ok               bool
	}{
		{"//sebdb:ignore-err storage teardown", "droppederr", "storage teardown", true},
		{"//sebdb:ignore-atomic bootstrap probe", "atomicwrite", "bootstrap probe", true},
		{"//sebdb:ignore-lock aliased acquisition", "lockcheck", "aliased acquisition", true},
		{"//sebdb:ignore-u32 framed above", "u32trunc", "framed above", true},
		{"//sebdb:ignore-droppederr full name", "droppederr", "full name", true},
		{"//sebdb:ignore-obsclock boot banner", "obsclock", "boot banner", true},
		{"//sebdb:ignore-err", "droppederr", "", true},
		{"//sebdb:ignore-lockio reason: store serialises its own fsync", "lockio", "reason: store serialises its own fsync", true},
		{"//sebdb:ignore-trusttaint reason: payload CRC-checked above", "trusttaint", "reason: payload CRC-checked above", true},
		{"//sebdb:ignore-unknown whatever", "", "", false},
		{"// plain comment", "", "", false},
	} {
		analyzer, reason, ok := parseDirective(tc.text)
		if analyzer != tc.analyzer || reason != tc.reason || ok != tc.ok {
			t.Errorf("parseDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.text, analyzer, reason, ok, tc.analyzer, tc.reason, tc.ok)
		}
	}
}

// The interprocedural analyzers demand an explicit reason: clause; the
// file-local ones accept any non-empty reason.
func TestReasonClausePolicy(t *testing.T) {
	for _, tc := range []struct {
		analyzer, reason string
		ok               bool
	}{
		{"droppederr", "teardown", true},
		{"droppederr", "", false},
		{"lockio", "serialised by design", false},
		{"lockio", "reason: serialised by design", true},
		{"lockio", "reason:", false},
		{"trusttaint", "checked above", false},
		{"trusttaint", "reason: CRC-checked above", true},
	} {
		if got := reasonAccepted(tc.analyzer, tc.reason); got != tc.ok {
			t.Errorf("reasonAccepted(%q, %q) = %v, want %v", tc.analyzer, tc.reason, got, tc.ok)
		}
	}
}

// TestLoadAllSkipsNestedModules checks "./..." stops at a nested
// go.mod, as the go tool's pattern does: the nested module's packages
// import the outer module's internals and would otherwise be analysed
// as part of it.
func TestLoadAllSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":            "module outer\n\ngo 1.22\n",
		"a/a.go":            "package a\n",
		"nested/go.mod":     "module outer/nested\n\ngo 1.22\n",
		"nested/main.go":    "package main\n\nfunc main() {}\n",
		"nested/sub/sub.go": "package sub\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "outer/a" {
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		t.Errorf("loaded %v, want [outer/a]", paths)
	}
}

// TestCuratedSpecsResolve loads the real module and demands that every
// function the interprocedural analyzers name in a curated list — read
// entry points, taint sources, sanitizers, sinks, handler registrars,
// lock-I/O sinks — still exists. matchSpec compares names, so a renamed
// target would otherwise drop out of its list (and out of the invariant
// it anchors) without any analyzer noticing.
func TestCuratedSpecsResolve(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for list, specs := range map[string][]funcSpec{
		"readLockEntries":   readLockEntries,
		"taintSources":      taintSources,
		"taintSanitizers":   taintSanitizers,
		"taintSinks":        taintSinks,
		"handlerRegistrars": handlerRegistrars,
		"lockIOSinks":       lockIOSinks,
	} {
		for _, s := range specs {
			if !strings.HasPrefix(s.pkg, "sebdb/") {
				continue // standard library: not ours to rename
			}
			p := byPath[s.pkg]
			if p == nil {
				t.Errorf("%s: %s.%s.%s names a package the module does not have", list, s.pkg, s.recv, s.name)
				continue
			}
			obj := p.Types.Scope().Lookup(s.name)
			if s.recv != "" {
				obj = nil
				if tn, ok := p.Types.Scope().Lookup(s.recv).(*types.TypeName); ok {
					obj, _, _ = types.LookupFieldOrMethod(tn.Type(), true, p.Types, s.name)
				}
			}
			if _, ok := obj.(*types.Func); !ok {
				t.Errorf("%s: %s.%s.%s does not resolve to a function", list, s.pkg, s.recv, s.name)
			}
		}
	}
}
