// Provenance: food-ingredient traceability, one of the blockchain
// applications the paper's introduction motivates. A batch of produce
// moves farm → processor → distributor → store; every hand-off is an
// on-chain transaction. The example shows track-trace over both
// dimensions, time-window queries against the block index, and the
// tamper-evidence of the chain itself.
package main

import (
	"fmt"
	"log"
	"os"

	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

func main() {
	dir, err := os.MkdirTemp("", "sebdb-provenance-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir) //sebdb:ignore-err example exit path; errors have nowhere to go

	engine, err := core.Open(core.Config{Dir: dir, DefaultSender: "registry"})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close() //sebdb:ignore-err example exit path; errors have nowhere to go

	if _, err := engine.Execute(
		`CREATE shipment (batch string, origin string, destination string, kilos decimal)`); err != nil {
		log.Fatal(err)
	}
	must(engine.FlushAt(1))

	// Three days of hand-offs; each day becomes one block so time
	// windows align with the block index.
	days := [][]struct {
		sender, batch, from, to string
		kilos                   float64
	}{
		{ // day 1: harvest leaves the farms
			{"farm-a", "apples-17", "farm-a", "processor-x", 1200},
			{"farm-b", "pears-03", "farm-b", "processor-x", 800},
		},
		{ // day 2: processing and wholesale
			{"processor-x", "apples-17", "processor-x", "distributor-1", 1100},
			{"processor-x", "pears-03", "processor-x", "distributor-1", 750},
		},
		{ // day 3: retail
			{"distributor-1", "apples-17", "distributor-1", "store-42", 500},
			{"distributor-1", "apples-17", "distributor-1", "store-77", 550},
		},
	}
	for d, events := range days {
		var batch []*types.Transaction
		for _, ev := range events {
			tx, err := engine.NewTransaction(ev.sender, "shipment", []types.Value{
				types.Str(ev.batch), types.Str(ev.from), types.Str(ev.to), types.Dec(ev.kilos),
			})
			must(err)
			tx.Ts = int64(d+1) * 1000
			batch = append(batch, tx)
		}
		_, err := engine.CommitBlock(batch, int64(d+1)*1000)
		must(err)
	}

	// A recall: trace the full history of batch apples-17. The layered
	// index on the batch column accelerates the lookup.
	must(engine.CreateIndex("shipment", "batch"))
	show(engine, `SELECT * FROM shipment WHERE batch = "apples-17"`)

	// Who touched the supply chain on day 2? Operator-dimension
	// track-trace restricted to a time window.
	show(engine, `TRACE [2000, 2999] OPERATOR = "processor-x"`)

	// Exec-level two-dimension tracking: every shipment processor-x
	// sent, any day (Algorithm 1 with both global indexes).
	q := &sqlparser.Trace{Operator: "processor-x", HasOperator: true,
		Operation: "shipment", HasOperation: true}
	txs, stats, err := exec.Track(engine.CurrentView(), q, exec.MethodLayered)
	must(err)
	fmt.Printf("\nprocessor-x sent %d shipments (examined %d txs via %d index probes)\n",
		len(txs), stats.TxsExamined, stats.IndexProbes)

	// Tamper-evidence: forging a quantity breaks the block's Merkle
	// root, so validation fails.
	blk, err := engine.Block(1)
	must(err)
	blk2 := *blk
	forged := *blk.Txs[0]
	forged.Args = append([]types.Value(nil), forged.Args...)
	forged.Args[3] = types.Dec(99999)
	blk2.Txs = append([]*types.Transaction{&forged}, blk.Txs[1:]...)
	if err := blk2.Validate(); err != nil {
		fmt.Printf("\ntampering detected as expected: %v\n", err)
	} else {
		log.Fatal("tampered block validated!")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func show(e *core.Engine, sql string) {
	fmt.Printf("\n> %s\n", sql)
	res, err := e.Execute(sql)
	must(err)
	fmt.Println(res.Columns)
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println(cells)
	}
}
