// Package lint implements sebdb-vet, the project's static-analysis
// suite. It enforces invariants the Go compiler cannot see — bounded
// wire decoding, no dropped errors, deterministic consensus code, lock
// discipline, and truncation-safe length casts — using only the
// standard library's go/ast, go/parser and go/types (the repository
// builds offline, so golang.org/x/tools is not available).
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sebdb/internal/lint/callgraph"
)

// Package is one loaded, parsed and type-checked package. It is the
// call graph's package type, so the graph can hand back the package
// that declares each function.
type Package = callgraph.Package

// Loader parses and type-checks the module's packages. Module-local
// imports are resolved recursively from source; standard-library
// imports go through go/importer's source importer, which reads GOROOT.
type Loader struct {
	Fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package // by import path; nil entry = in progress
}

// Root returns the loaded module's root directory.
func (l *Loader) Root() string { return l.moduleRoot }

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: root,
		modulePath: path,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and reads the
// module path from its first "module" directive.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

// LoadAll loads every package under the module root (the "./..."
// pattern), skipping testdata and hidden directories and, as the go
// tool's pattern does, nested modules: a directory with its own go.mod
// (benchmark/) is another module's code, vetted from inside it.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.moduleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if p != l.moduleRoot {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(l.moduleRoot, p)
				if err != nil {
					return err
				}
				ip := l.modulePath
				if rel != "." {
					ip = l.modulePath + "/" + filepath.ToSlash(rel)
				}
				paths = append(paths, ip)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*Package
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// Load loads one module-local package by import path. It returns
// (nil, nil) for directories with no buildable non-test Go files.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	l.pkgs[path] = nil // mark in progress; import cycles resolve to nil
	dir := l.moduleRoot
	if path != l.modulePath {
		rest, ok := strings.CutPrefix(path, l.modulePath+"/")
		if !ok {
			return nil, fmt.Errorf("lint: %q is not under module %q", path, l.modulePath)
		}
		dir = filepath.Join(l.moduleRoot, filepath.FromSlash(rest))
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:                 importerFunc(func(p string) (*types.Package, error) { return l.importPkg(p) }),
		Error:                    func(error) {}, // collect nothing; partial info is fine
		DisableUnusedImportCheck: true,
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info) //sebdb:ignore-err type errors are tolerated by design; partial Info still feeds the analyzers
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Files: files,
		Fset:  l.Fset,
		Info:  info,
		Types: tpkg,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of dir in name order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importPkg resolves one import for the type checker.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil || pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("lint: cannot import %q: %v", path, err)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
