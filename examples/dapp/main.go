// DApp: the application layer of the paper's Fig. 2 — a decentralized
// charity application defined by smart contracts with embedded SQL,
// with channel-based access control protecting the participants'
// private tables. Contracts deploy through the chain itself, so every
// node replays the same procedures.
package main

import (
	"fmt"
	"log"
	"os"

	"sebdb/internal/core"
	"sebdb/internal/types"
)

func main() {
	dir, err := os.MkdirTemp("", "sebdb-dapp-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir) //sebdb:ignore-err example exit path; errors have nowhere to go

	engine, err := core.Open(core.Config{Dir: dir, BlockMaxTxs: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close() //sebdb:ignore-err example exit path; errors have nowhere to go

	// Schema: a public ledger plus a members-only audit table.
	for _, ddl := range []string{
		`CREATE donate (donor string, project string, amount decimal)`,
		`CREATE audit (auditor string, finding string)`,
	} {
		if _, err := engine.Execute(ddl); err != nil {
			log.Fatal(err)
		}
	}

	// Access control: the audit channel admits only the charity and the
	// auditor, and only the auditor may write findings.
	acl := engine.AccessControl()
	must(acl.CreateChannel("auditors", "charity", "ernst"))
	must(acl.AssignTable("audit", "auditors"))
	must(acl.RestrictWriters("auditors", "ernst"))

	// The DApp's business logic as smart contracts: SQL with $n
	// parameters and the implicit $sender.
	must(engine.DeployContract("charity", "give", []string{
		`INSERT INTO donate ($sender, $1, $2)`,
		`SELECT donor, amount FROM donate WHERE project = $1`,
	}))
	must(engine.DeployContract("charity", "myhistory", []string{
		`TRACE OPERATOR = $sender`,
	}))
	must(engine.Flush())

	// Donors invoke contracts; each embedded statement runs as them.
	if _, err := engine.InvokeContract("jack", "give", types.Str("education"), types.Dec(100)); err != nil {
		log.Fatal(err)
	}
	must(engine.Flush())
	res, err := engine.InvokeContract("mary", "give", types.Str("education"), types.Dec(40))
	if err != nil {
		log.Fatal(err)
	}
	must(engine.Flush())
	fmt.Println("education project donations (returned by the give contract):")
	for _, row := range res.Rows {
		fmt.Printf("  %s gave %s\n", row[0], row[1])
	}

	// Track-trace via contract.
	res, err = engine.InvokeContract("jack", "myhistory")
	must(err)
	fmt.Printf("\njack's on-chain history: %d transactions\n", len(res.Rows))

	// Access control in action.
	if _, err := engine.ExecuteAs("ernst", `INSERT INTO audit ("ernst", "books check out")`); err != nil {
		log.Fatal(err)
	}
	must(engine.Flush())
	if _, err := engine.ExecuteAs("jack", `SELECT * FROM audit`); err != nil {
		fmt.Printf("\njack reading the audit table: %v\n", err)
	} else {
		log.Fatal("access control failed to protect the audit channel")
	}
	if _, err := engine.ExecuteAs("charity", `INSERT INTO audit ("charity", "self-audit")`); err != nil {
		fmt.Printf("charity writing audit findings: %v\n", err)
	} else {
		log.Fatal("writer restriction failed")
	}
	res, err = engine.ExecuteAs("charity", `SELECT * FROM audit`)
	must(err)
	fmt.Printf("charity (a channel member) reads %d audit finding(s)\n", len(res.Rows))

	fmt.Printf("\ndeployed contracts: %v; chain height: %d\n",
		engine.CurrentView().ContractNames(), engine.Height())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
