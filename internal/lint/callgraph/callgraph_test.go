package callgraph_test

import (
	"go/types"
	"path/filepath"
	"testing"

	"sebdb/internal/lint"
	"sebdb/internal/lint/callgraph"
)

// buildFixture loads the cg fixture module through the lint loader and
// builds its call graph.
func buildFixture(t *testing.T) *callgraph.Graph {
	t.Helper()
	loader, err := lint.NewLoader(filepath.Join("testdata", "src", "cg"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("cg fixture loaded no packages")
	}
	return callgraph.Build(pkgs)
}

// fn finds a declared function by display name: "Name" for functions,
// "Recv.Name" for methods.
func fn(t *testing.T, g *callgraph.Graph, display string) *types.Func {
	t.Helper()
	for _, f := range g.Funcs() {
		name := f.Name()
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, isPtr := recv.(*types.Pointer); isPtr {
				recv = ptr.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed {
				name = named.Obj().Name() + "." + name
			}
		}
		if name == display {
			return f
		}
	}
	t.Fatalf("function %s not found in graph", display)
	return nil
}

// reachTo computes reachability with the named function as the sole sink.
func reachTo(t *testing.T, g *callgraph.Graph, sink string) *callgraph.Reach {
	t.Helper()
	target := fn(t, g, sink)
	return g.Reaches(func(f *types.Func) bool { return f == target })
}

func TestInterfaceDispatchWidens(t *testing.T) {
	g := buildFixture(t)
	dispatch := fn(t, g, "Dispatch")
	if r := reachTo(t, g, "clang"); !r.Reaches(dispatch) {
		t.Error("Dispatch does not reach clang through the widened Bell.Ring")
	}
	if r := reachTo(t, g, "honk"); !r.Reaches(dispatch) {
		t.Error("Dispatch does not reach honk through the widened Horn.Ring")
	}
}

func TestMethodValueEscapes(t *testing.T) {
	g := buildFixture(t)
	mv := fn(t, g, "MethodValue")
	if r := reachTo(t, g, "clang"); !r.Reaches(mv) {
		t.Error("escaping method value b.Ring did not add an edge from MethodValue")
	}
	if r := reachTo(t, g, "honk"); r.Reaches(mv) {
		t.Error("MethodValue reaches honk: method value widened too far")
	}
}

func TestClosureAttributedToEnclosing(t *testing.T) {
	g := buildFixture(t)
	if r := reachTo(t, g, "clang"); !r.Reaches(fn(t, g, "Closure")) {
		t.Error("closure body call to clang not attributed to Closure")
	}
}

func TestRecursionTerminatesAndReaches(t *testing.T) {
	g := buildFixture(t)
	loop := fn(t, g, "Loop")
	r := reachTo(t, g, "Leaf")
	if !r.Reaches(loop) {
		t.Error("Loop does not reach Leaf")
	}
	path := r.Path(loop)
	if len(path) != 2 || path[0] != loop || path[1] != fn(t, g, "Leaf") {
		t.Errorf("witness path Loop->Leaf has wrong shape: %v", path)
	}
}

func TestIsolatedFunctionReachesNothing(t *testing.T) {
	g := buildFixture(t)
	iso := fn(t, g, "Isolated")
	for _, sink := range []string{"clang", "honk", "Leaf"} {
		if r := reachTo(t, g, sink); r.Reaches(iso) {
			t.Errorf("Isolated spuriously reaches %s", sink)
		}
	}
	if len(g.Callees(iso)) != 0 {
		t.Errorf("Isolated has outgoing edges: %v", g.Callees(iso))
	}
}

func TestSinkIsItsOwnWitness(t *testing.T) {
	g := buildFixture(t)
	leaf := fn(t, g, "Leaf")
	r := reachTo(t, g, "Leaf")
	if !r.Reaches(leaf) {
		t.Error("a sink must report reaching itself")
	}
	if path := r.Path(leaf); len(path) != 1 || path[0] != leaf {
		t.Errorf("sink witness path should be [Leaf], got %v", path)
	}
}
