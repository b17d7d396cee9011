package thinclient

import (
	"errors"
	"testing"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/types"
)

// scriptNode is a QueryNode that records routed statements and can be
// told to fail them.
type scriptNode struct {
	id    string
	fail  bool
	calls []string
}

func (s *scriptNode) ID() string                                  { return s.id }
func (s *scriptNode) Height() (uint64, error)                     { return 0, nil }
func (s *scriptNode) Headers(uint64) ([]types.BlockHeader, error) { return nil, nil }
func (s *scriptNode) AuthQuery(*node.AuthRequest) (*auth.Answer, error) {
	return nil, errors.New("n/a")
}
func (s *scriptNode) AuthDigest(*node.AuthRequest) ([32]byte, error) {
	return [32]byte{}, errors.New("n/a")
}

func (s *scriptNode) SQL(query string) (*core.Result, error) {
	s.calls = append(s.calls, query)
	if s.fail {
		return nil, errors.New(s.id + " down")
	}
	return &core.Result{}, nil
}

func TestIsRead(t *testing.T) {
	reads := []string{
		`SELECT * FROM donate`,
		`select amount from donate`,
		`TRACE OPERATOR = "org1"`,
		`EXPLAIN SELECT * FROM donate`,
		`GET BLOCK 3`,
		`SHOW TRACES`,
		`  select 1`, // leading whitespace
	}
	writes := []string{
		`INSERT INTO donate VALUES ("a", "b", 1)`,
		`CREATE donate (donor string)`,
		``,
		`   `,
		`DROPTABLE donate`, // unrecognised verbs are treated as writes
	}
	for _, q := range reads {
		if !IsRead(q) {
			t.Errorf("IsRead(%q) = false, want true", q)
		}
	}
	for _, q := range writes {
		if IsRead(q) {
			t.Errorf("IsRead(%q) = true, want false", q)
		}
	}
}

func TestRouterRoundRobinReads(t *testing.T) {
	leader := &scriptNode{id: "leader"}
	r1, r2 := &scriptNode{id: "r1"}, &scriptNode{id: "r2"}
	rt := NewRouter(leader, r1, r2)
	for i := 0; i < 6; i++ {
		if _, err := rt.SQL(`SELECT * FROM donate`); err != nil {
			t.Fatal(err)
		}
	}
	if len(r1.calls) != 3 || len(r2.calls) != 3 {
		t.Errorf("round-robin split = %d/%d, want 3/3", len(r1.calls), len(r2.calls))
	}
	if len(leader.calls) != 0 {
		t.Errorf("leader served %d reads with a healthy fleet", len(leader.calls))
	}
}

func TestRouterWritesGoToLeader(t *testing.T) {
	leader := &scriptNode{id: "leader"}
	r1 := &scriptNode{id: "r1"}
	rt := NewRouter(leader, r1)
	stmts := []string{
		`INSERT INTO donate VALUES ("a", "b", 1)`,
		`CREATE idx (x string)`,
		`INSERT INTO donate VALUES ("c", "d", 2)`,
	}
	for _, q := range stmts {
		if _, err := rt.SQL(q); err != nil {
			t.Fatal(err)
		}
	}
	if len(leader.calls) != len(stmts) {
		t.Errorf("leader got %d writes, want %d", len(leader.calls), len(stmts))
	}
	if len(r1.calls) != 0 {
		t.Errorf("replica got %d writes, want 0", len(r1.calls))
	}
}

func TestRouterFallsBackToLeader(t *testing.T) {
	leader := &scriptNode{id: "leader"}
	r1 := &scriptNode{id: "r1", fail: true}
	r2 := &scriptNode{id: "r2", fail: true}
	rt := NewRouter(leader, r1, r2)
	if _, err := rt.SQL(`SELECT * FROM donate`); err != nil {
		t.Fatalf("read with dead fleet should fall back to the leader: %v", err)
	}
	if len(leader.calls) != 1 {
		t.Errorf("leader calls = %d, want 1 fallback", len(leader.calls))
	}
	// Both replicas were each tried once before the fallback.
	if len(r1.calls) != 1 || len(r2.calls) != 1 {
		t.Errorf("replica attempts = %d/%d, want 1/1", len(r1.calls), len(r2.calls))
	}

	// One healthy replica absorbs the read even when the other is down.
	r2.fail = false
	if _, err := rt.SQL(`SELECT * FROM donate`); err != nil {
		t.Fatal(err)
	}
	if len(leader.calls) != 1 {
		t.Errorf("leader calls = %d after healthy-replica read, want still 1", len(leader.calls))
	}
}

func TestRouterNoReplicasDegradesToLeader(t *testing.T) {
	leader := &scriptNode{id: "leader"}
	rt := NewRouter(leader)
	if _, err := rt.SQL(`SELECT * FROM donate`); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SQL(`INSERT INTO donate VALUES ("a", "b", 1)`); err != nil {
		t.Fatal(err)
	}
	if len(leader.calls) != 2 {
		t.Errorf("leader calls = %d, want 2", len(leader.calls))
	}
}

func TestRouterAuthTargets(t *testing.T) {
	leader := &scriptNode{id: "leader"}
	r1, r2, r3 := &scriptNode{id: "r1"}, &scriptNode{id: "r2"}, &scriptNode{id: "r3"}
	rt := NewRouter(leader, r1, r2, r3)

	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		full, aux := rt.AuthTargets()
		seen[full.ID()] = true
		if full.ID() == "leader" {
			t.Error("phase one should come from a replica when the fleet is non-empty")
		}
		if len(aux) != 3 {
			t.Fatalf("aux set size = %d, want 3 (leader + other replicas)", len(aux))
		}
		if aux[0].ID() != "leader" {
			t.Errorf("aux[0] = %s, want the leader in every auxiliary set", aux[0].ID())
		}
		for _, a := range aux {
			if a.ID() == full.ID() {
				t.Errorf("phase-one node %s also in its own auxiliary set", full.ID())
			}
		}
	}
	if len(seen) != 3 {
		t.Errorf("phase-one rotation hit %d distinct replicas over 3 picks, want 3", len(seen))
	}

	// Empty fleet: the leader answers phase one, no auxiliaries added.
	full, aux := NewRouter(leader).AuthTargets()
	if full.ID() != "leader" || len(aux) != 0 {
		t.Errorf("empty fleet targets = %s/%d aux, want leader/0", full.ID(), len(aux))
	}
}
