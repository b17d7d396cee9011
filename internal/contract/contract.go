// Package contract implements the application layer's smart contracts
// (paper §III-B): "The system supports smart contract embedded SQL-like
// language to define a DApp, where SQL-like is responsible for
// accessing data." A contract is a named procedure whose body is a
// list of SQL-like statements with $1..$n parameter placeholders and
// $sender for the caller's identity; invoking the contract executes the
// statements in order against the engine, all as the caller, and
// returns the last statement's result set.
//
// Contracts deploy through a reserved transaction type so every node
// holds the same procedures; like DDL, deployment rides the chain, and
// the engine keeps the contracts it defines (see core.chainDefs).
package contract

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// MetaTable is the reserved transaction type carrying contract
// deployments on chain.
const MetaTable = "_contract"

// Contract is one deployed procedure.
type Contract struct {
	// Name identifies the contract for Invoke.
	Name string
	// Params is the number of $n placeholders the body expects.
	Params int
	// Statements are the SQL-like statements executed in order.
	Statements []string
}

var paramPattern = regexp.MustCompile(`\$(\d+|sender)`)

// Parse validates a contract definition: every statement must be
// syntactically valid once placeholders are substituted, and parameter
// indexes must be contiguous from $1.
func Parse(name string, statements []string) (*Contract, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return nil, fmt.Errorf("contract: empty name")
	}
	if len(statements) == 0 {
		return nil, fmt.Errorf("contract: %q has no statements", name)
	}
	maxParam := 0
	for i, stmt := range statements {
		for _, m := range paramPattern.FindAllStringSubmatch(stmt, -1) {
			if m[1] == "sender" {
				continue
			}
			n, err := strconv.Atoi(m[1])
			if err != nil {
				return nil, fmt.Errorf("contract: %q statement %d: parameter %s: %w", name, i, m[0], err)
			}
			if n < 1 {
				return nil, fmt.Errorf("contract: %q statement %d uses $0", name, i)
			}
			if n > maxParam {
				maxParam = n
			}
		}
		// Validate syntax with every placeholder replaced by a string
		// literal. The probe is sized by the statement, never by a
		// placeholder's index: a deployment decoded from a block or a
		// peer's checkpoint may claim $244444444.
		probe := paramPattern.ReplaceAllLiteralString(stmt, `"probe"`)
		if _, err := sqlparser.Parse(probe); err != nil {
			return nil, fmt.Errorf("contract: %q statement %d: %w", name, i, err)
		}
	}
	return &Contract{Name: name, Params: maxParam, Statements: statements}, nil
}

// substitute renders placeholders into SQL literal syntax.
func substitute(stmt string, args []types.Value, sender string) string {
	return paramPattern.ReplaceAllStringFunc(stmt, func(m string) string {
		if m == "$sender" {
			return quote(types.Str(sender))
		}
		n, err := strconv.Atoi(m[1:])
		if err != nil || n < 1 || n > len(args) {
			return m
		}
		return quote(args[n-1])
	})
}

func quote(v types.Value) string {
	switch v.Kind {
	case types.KindString:
		return `"` + strings.ReplaceAll(v.S, `"`, `\"`) + `"`
	default:
		return v.String()
	}
}

// EncodeDeploy serialises the contract as a MetaTable transaction
// payload: [name, nstatements, stmt1, ...].
func (c *Contract) EncodeDeploy() []types.Value {
	out := []types.Value{types.Str(c.Name), types.Int(int64(len(c.Statements)))}
	for _, s := range c.Statements {
		out = append(out, types.Str(s))
	}
	return out
}

// DecodeDeploy parses a deployment payload.
func DecodeDeploy(args []types.Value) (*Contract, error) {
	if len(args) < 3 || args[0].Kind != types.KindString || args[1].Kind != types.KindInt {
		return nil, fmt.Errorf("contract: malformed deployment payload")
	}
	n := int(args[1].I)
	if len(args) != 2+n {
		return nil, fmt.Errorf("contract: deployment declares %d statements, has %d", n, len(args)-2)
	}
	stmts := make([]string, n)
	for i := 0; i < n; i++ {
		if args[2+i].Kind != types.KindString {
			return nil, fmt.Errorf("contract: statement %d not a string", i)
		}
		stmts[i] = args[2+i].S
	}
	return Parse(args[0].S, stmts)
}

// Executor is the SQL surface contracts run against. It is a function
// rather than an interface so core.Engine (which imports this package
// for deployment replay) can adapt its Execute method without an import
// cycle.
type Executor func(sender, sql string) (columns []string, rows [][]types.Value, err error)

// Result is a contract invocation's final result set.
type Result struct {
	Columns []string
	Rows    [][]types.Value
}

// Equal reports whether c and d deploy the same contract.
func (c *Contract) Equal(d *Contract) bool {
	if c.Name != d.Name || len(c.Statements) != len(d.Statements) {
		return false
	}
	for i := range c.Statements {
		if c.Statements[i] != d.Statements[i] {
			return false
		}
	}
	return true
}

// Invoke runs the contract as sender with the given arguments,
// returning the final statement's result.
func (c *Contract) Invoke(ex Executor, sender string, args ...types.Value) (*Result, error) {
	if len(args) != c.Params {
		return nil, fmt.Errorf("contract: %q expects %d args, got %d", c.Name, c.Params, len(args))
	}
	last := &Result{}
	for i, stmt := range c.Statements {
		sql := substitute(stmt, args, sender)
		cols, rows, err := ex(sender, sql)
		if err != nil {
			return nil, fmt.Errorf("contract: %q statement %d: %w", c.Name, i, err)
		}
		last = &Result{Columns: cols, Rows: rows}
	}
	return last, nil
}
