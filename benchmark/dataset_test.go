package main

import (
	"testing"
)

// Same seed, same inputs: the dataset and the statement stream are
// byte-identical; another seed changes both.
func TestSeedFixesDatasetAndStream(t *testing.T) {
	build := func(seed int64) (string, []Stmt) {
		ds := Generate(seed, SmokeSize)
		fp := ds.Fingerprint()
		if err := ds.Build(t.TempDir(), BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		o, err := NewOracle(ds)
		if err != nil {
			t.Fatal(err)
		}
		var all []Stmt
		for _, w := range Workloads {
			pool, err := o.Pool(w.Mix, 64, seed)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, pool...)
		}
		tip := ds.Headers[len(ds.Headers)-1].Hash()
		return fp + "/" + string(tip[:]), all
	}
	fpA, stA := build(11)
	fpB, stB := build(11)
	fpC, stC := build(12)
	if fpA != fpB {
		t.Fatal("same seed, different dataset or chain tip")
	}
	if fpA == fpC {
		t.Fatal("different seeds, same dataset")
	}
	if len(stA) != len(stB) {
		t.Fatal("same seed, different stream length")
	}
	differs := false
	for i := range stA {
		if stA[i] != stB[i] {
			t.Fatalf("same seed, statement %d differs: %+v vs %+v", i, stA[i], stB[i])
		}
		if i < len(stC) && stA[i] != stC[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds, same statement stream")
	}
	for i := 0; i < 3; i++ {
		if InsertSQL(11, i) != InsertSQL(11, i) || InsertSQL(11, i) == InsertSQL(12, i) {
			t.Fatal("INSERT stream is not a function of the seed")
		}
	}
}

// Every generated statement kind has rows to return, and the answers
// come from the RDBMS oracle, not from the engine under test.
func TestEveryKindReturnsRows(t *testing.T) {
	ds := Generate(3, SmokeSize)
	if err := ds.Build(t.TempDir(), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	o, err := NewOracle(ds)
	if err != nil {
		t.Fatal(err)
	}
	for k := StmtKind(0); k < numReadKinds; k++ {
		pool, err := o.Pool(Mix{{k, 100}}, 40, 3)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, st := range pool {
			rows += st.Want.Rows
		}
		if rows == 0 {
			t.Errorf("%s: 40 generated statements expect no rows at all", k)
		}
	}
}
