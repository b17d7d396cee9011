package contract

import (
	"fmt"
	"strings"
	"testing"

	"sebdb/internal/types"
)

func TestParseValidatesSyntaxAndParams(t *testing.T) {
	c, err := Parse("Donate", []string{
		`INSERT INTO donate ($sender, $1, $2)`,
		`SELECT * FROM donate WHERE project = $1`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "donate" || c.Params != 2 || len(c.Statements) != 2 {
		t.Errorf("parsed %+v", c)
	}

	bad := []struct {
		name  string
		stmts []string
	}{
		{"", []string{`SELECT * FROM t`}},
		{"x", nil},
		{"x", []string{`GARBAGE SQL`}},
		{"x", []string{`INSERT INTO t ($0)`}},
	}
	for _, b := range bad {
		if _, err := Parse(b.name, b.stmts); err == nil {
			t.Errorf("Parse(%q, %v) should fail", b.name, b.stmts)
		}
	}
}

func TestSubstitution(t *testing.T) {
	got := substitute(`INSERT INTO t ($sender, $1, $2)`,
		[]types.Value{types.Str(`he said "hi"`), types.Dec(3.5)}, "org1")
	if !strings.Contains(got, `"org1"`) {
		t.Errorf("sender not substituted: %s", got)
	}
	if !strings.Contains(got, `\"hi\"`) {
		t.Errorf("quotes not escaped: %s", got)
	}
	if !strings.Contains(got, "3.5") {
		t.Errorf("number not substituted: %s", got)
	}
	// Out-of-range placeholders stay (and will fail at parse).
	if got := substitute(`$3`, []types.Value{types.Int(1)}, "s"); got != "$3" {
		t.Errorf("out-of-range substitution = %q", got)
	}
}

func TestDeployRoundTrip(t *testing.T) {
	c, _ := Parse("flow", []string{
		`INSERT INTO donate ($sender, $1, $2)`,
		`TRACE OPERATOR = $sender`,
	})
	got, err := DecodeDeploy(c.EncodeDeploy())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(got) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	// Malformed payloads.
	bad := [][]types.Value{
		nil,
		{types.Str("x")},
		{types.Int(1), types.Int(1), types.Str("s")},
		{types.Str("x"), types.Int(5), types.Str("only one")},
		{types.Str("x"), types.Int(1), types.Int(9)},
	}
	for i, args := range bad {
		if _, err := DecodeDeploy(args); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestInvoke(t *testing.T) {
	c, err := Parse("flow", []string{
		`INSERT INTO donate ($sender, $1, $2)`,
		`SELECT * FROM donate WHERE project = $1`,
	})
	if err != nil {
		t.Fatal(err)
	}

	var executed []string
	ex := func(sender, sql string) ([]string, [][]types.Value, error) {
		executed = append(executed, fmt.Sprintf("%s: %s", sender, sql))
		return []string{"ok"}, [][]types.Value{{types.Str(sql)}}, nil
	}
	res, err := c.Invoke(ex, "org1", types.Str("edu"), types.Dec(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 2 {
		t.Fatalf("executed %d statements", len(executed))
	}
	if !strings.Contains(executed[0], `"org1"`) || !strings.Contains(executed[0], `"edu"`) {
		t.Errorf("statement 0 = %s", executed[0])
	}
	if len(res.Rows) != 1 {
		t.Errorf("result rows = %d", len(res.Rows))
	}
	// Arity errors.
	if _, err := c.Invoke(ex, "org1", types.Str("edu")); err == nil {
		t.Error("missing arg accepted")
	}
	// Executor failures propagate with context.
	bad := func(sender, sql string) ([]string, [][]types.Value, error) {
		return nil, nil, fmt.Errorf("boom")
	}
	if _, err := c.Invoke(bad, "org1", types.Str("e"), types.Int(1)); err == nil ||
		!strings.Contains(err.Error(), "boom") {
		t.Errorf("executor error lost: %v", err)
	}
}
