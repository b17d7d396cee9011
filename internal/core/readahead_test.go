package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sebdb/internal/clock"
	"sebdb/internal/types"
)

// midChainDefs builds, at Parallelism 1 so every block is indexed by the
// install stage alone, a chain whose definitions stand in its middle:
// transfer rows first, then the _schema record of donate, donate rows,
// the _index records of a continuous layered index, a continuous and a
// discrete ALI, and more rows of both tables. extra, if set, runs on
// the engine before it is closed. It returns the chain's answers as the
// install stage left them.
func midChainDefs(t *testing.T, dir string, extra func(e *Engine)) string {
	t.Helper()
	e, err := Open(Config{Dir: dir, BlockMaxTxs: 4, Parallelism: 1, Clock: clock.Fixed(1)})
	if err != nil {
		t.Fatal(err)
	}
	row := func(tname string, i int) {
		t.Helper()
		args := []types.Value{types.Str(fmt.Sprintf("donor%03d", i%10)), types.Str("education"), types.Dec(float64(i % 23))}
		if tname == "transfer" {
			args = []types.Value{types.Str("education"), types.Str(fmt.Sprintf("donor%03d", i%10)), types.Str("org"), types.Dec(float64(i))}
		}
		tx, err := e.NewTransaction(fmt.Sprintf("org%d", i%3), tname, args)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `CREATE transfer (project string, donor string, organization string, amount decimal)`)
	for i := 0; i < 12; i++ {
		row("transfer", i)
	}
	mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
	for i := 0; i < 40; i++ {
		row("donate", i)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "donor"); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 80; i++ {
		row([]string{"donate", "transfer"}[i%2], i)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	want := replayAnswers(t, e)
	if extra != nil {
		extra(e)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// replayAnswers renders what a replay must rebuild: the recovery
// fingerprint, every MB-root, and the first-level candidates of the
// layered index and the ALIs for a spread of ranges.
func replayAnswers(t *testing.T, e *Engine) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(recoveryFingerprint(t, e))
	sb.WriteString(aliRoots(e))
	v := e.CurrentView()
	lidx, amount, donor := v.Layered("donate", "amount"), v.AuthIndex("donate", "amount"), v.AuthIndex("donate", "donor")
	if lidx == nil || amount == nil || donor == nil {
		t.Fatal("an index of the chain is missing")
	}
	for _, r := range [][2]float64{{0, 0}, {3, 9}, {10, 22}, {-5, 100}} {
		lo, hi := types.Dec(r[0]), types.Dec(r[1])
		fmt.Fprintf(&sb, "[%v,%v] layered %v ali %v\n", r[0], r[1], lidx.CandidateBlocks(lo, hi).Slice(), amount.CandidateBlocks(lo, hi).Slice())
	}
	fmt.Fprintf(&sb, "donor %v\n", donor.CandidateBlocks(types.Str("donor003"), types.Str("donor005")).Slice())
	return sb.String()
}

// replayRoutes opens a copy of dir by full replay with indexes.json
// present and deleted, at Parallelism 1 and 4, and hands each route's
// engine or error to check.
func replayRoutes(t *testing.T, dir string, check func(route string, e *Engine, err error)) {
	t.Helper()
	for _, cache := range []bool{true, false} {
		for _, par := range []int{1, 4} {
			route := fmt.Sprintf("cache=%v parallelism=%d", cache, par)
			cp := t.TempDir()
			copyTree(t, dir, cp)
			if !cache {
				if err := os.Remove(filepath.Join(cp, indexMetaFile)); err != nil {
					t.Fatal(err)
				}
			}
			e, err := Open(Config{Dir: cp, Parallelism: par, DisableCheckpointLoad: true})
			check(route, e, err)
			if err == nil {
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestReadAheadMatchesInstall: a full replay builds each block's runs
// and MB-trees in its read-ahead, against the definitions current when
// the block is read, and links them in height order. Where a definition
// stands mid-chain the read-ahead of the blocks behind it is stale — a
// cached index on a table not yet defined, or an index created since —
// and those blocks are built again under the lock. Every route must
// rebuild what the install stage built.
func TestReadAheadMatchesInstall(t *testing.T) {
	dir := t.TempDir()
	want := midChainDefs(t, dir, nil)
	replayRoutes(t, dir, func(route string, e *Engine, err error) {
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if got := replayAnswers(t, e); got != want {
			t.Errorf("%s rebuilt\n%s, the install stage\n%s", route, got, want)
		}
	})
}

// brokenFeedErr is the error a replay of midChainDefs' chain plus the
// block of TestReadAheadKeepsFeedErrors fails with, serial install or
// read-ahead alike.
const brokenFeedErr = "types: column index out of range"

// TestReadAheadKeepsFeedErrors: a block appended before the install
// stage checked tuples can hold a donate tuple too short for the index
// on its third column. Replay does not check tuples, so the block's feed
// fails — and a build error the read-ahead holds must reach Open as the
// error the serial install reports, on every route.
func TestReadAheadKeepsFeedErrors(t *testing.T) {
	dir := t.TempDir()
	midChainDefs(t, dir, func(e *Engine) {
		short := &types.Transaction{Ts: 1, SenID: "org1", Tname: "donate", Args: []types.Value{types.Str("solo")}}
		b := e.prepareBlock([]*types.Transaction{short}, 1)
		if _, err := e.store.AppendNoSync(b); err != nil {
			t.Fatal(err)
		}
	})
	replayRoutes(t, dir, func(route string, _ *Engine, err error) {
		if !errors.Is(err, types.ErrNoColumn) || err.Error() != brokenFeedErr {
			t.Errorf("%s: Open = %v, want %q", route, err, brokenFeedErr)
		}
	})
}

// TestReadAheadStaleness holds current to its rule: a read-ahead is
// current until an index is created or the tables change, and a block
// carrying a reserved-table transaction is never built ahead.
func TestReadAheadStaleness(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 4, Clock: clock.Fixed(1)})
	seedDonation(t, e, 8, 4)
	read := func(h uint64) *builtBlock {
		bb, err := e.readAhead(h)
		if err != nil {
			t.Fatal(err)
		}
		return bb
	}
	current := func(bb *builtBlock) bool {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return bb.current(e, e.defs.tables)
	}
	if bb := read(0); bb.built || current(bb) {
		t.Fatal("the block of CREATE was built ahead")
	}
	bb := read(1)
	if !current(bb) || bb.err != nil || len(bb.links) != 2 {
		t.Fatalf("a block of rows read ahead: current=%v err=%v links=%d, want current, no error, 2 links", current(bb), bb.err, len(bb.links))
	}
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if current(bb) {
		t.Error("a read-ahead from before CreateIndex is still current")
	}
	bb = read(1)
	if !current(bb) || len(bb.links) != 3 {
		t.Fatalf("read again: current=%v links=%d, want current, 3 links", current(bb), len(bb.links))
	}
	mustExec(t, e, `CREATE fresh (x int)`)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if current(bb) {
		t.Error("a read-ahead from before CREATE is still current")
	}
}
