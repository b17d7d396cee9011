// Thin client: the §VI protocol end to end. Four full nodes hold the
// same chain with an authenticated layered index; a thin client that
// stores only block headers runs a range query against one (untrusted)
// node, verifies the VO, and confirms the snapshot digest with sampled
// auxiliary nodes — detecting a Byzantine auxiliary along the way.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/thinclient"
	"sebdb/internal/types"
)

func main() {
	dir, err := os.MkdirTemp("", "sebdb-thin-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir) //sebdb:ignore-err example exit path; errors have nowhere to go

	// Build node 0's chain: 10 blocks of donations.
	engines := make([]*core.Engine, 4)
	for i := range engines {
		e, err := core.Open(core.Config{
			Dir: filepath.Join(dir, fmt.Sprintf("node%d", i)), HistogramDepth: 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer e.Close() //sebdb:ignore-err example exit path; errors have nowhere to go
		engines[i] = e
	}
	e0 := engines[0]
	if _, err := e0.Execute(`CREATE donate (donor string, project string, amount decimal)`); err != nil {
		log.Fatal(err)
	}
	must(e0.FlushAt(1))
	tidAmount := 0
	for b := 0; b < 10; b++ {
		var batch []*types.Transaction
		for i := 0; i < 10; i++ {
			tx, err := e0.NewTransaction("org1", "donate", []types.Value{
				types.Str(fmt.Sprintf("donor%02d", tidAmount%7)),
				types.Str("education"),
				types.Dec(float64(tidAmount)),
			})
			must(err)
			tx.Ts = int64(b+1) * 1000
			batch = append(batch, tx)
			tidAmount++
		}
		_, err := e0.CommitBlock(batch, int64(b+1)*1000)
		must(err)
	}
	// Define the ALI on the chain, then replicate every block to the
	// other three nodes (what consensus would do): each builds the ALI
	// from the record.
	must(e0.CreateAuthIndex("donate", "amount"))
	for h := uint64(0); h < e0.Height(); h++ {
		blk, err := e0.Block(h)
		must(err)
		for _, e := range engines[1:] {
			must(e.ApplyBlock(blk))
		}
	}
	var qns []node.QueryNode
	for i, e := range engines {
		n := node.New(e)
		defer n.Close() //sebdb:ignore-err example exit path; errors have nowhere to go
		qns = append(qns, &node.Local{Node: n, Name: fmt.Sprintf("node%d", i)})
	}

	// The thin client syncs headers only — ~200 bytes per block instead
	// of full blocks.
	tc := thinclient.New(42)
	must(tc.SyncHeaders(qns[0]))
	fmt.Printf("thin client synced %d headers\n", tc.Height())

	// Authenticated range query: amounts in [25, 40].
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(25), Hi: types.Dec(40)}
	txs, stats, err := tc.AuthQuery(qns[0], qns[1:], req,
		thinclient.Options{M: 2, ByzantineRatio: 0.25, MaxByzantine: 1})
	must(err)
	fmt.Printf("verified %d transactions; VO %d bytes over %d blocks; "+
		"%d/%d auxiliary digests matched; wrong-digest probability %.3g\n",
		len(txs), stats.VOSize, stats.BlocksInAnswer, stats.Identical, stats.AuxAsked, stats.Theta)
	for _, tx := range txs[:3] {
		fmt.Printf("  tid=%d amount=%s\n", tx.Tid, tx.Args[2])
	}

	// A Byzantine full node that withholds part of the answer is caught:
	// its digest cannot match the honest auxiliaries.
	ans, err := qns[0].AuthQuery(req)
	must(err)
	ans.Blocks = ans.Blocks[:len(ans.Blocks)-1] // withhold the last block
	digest, _, err := auth.VerifyAnswer(ans, req.Lo, req.Hi)
	must(err)
	req2 := *req
	req2.Height = ans.Height
	honest, err := qns[1].AuthDigest(&req2)
	must(err)
	if digest != honest {
		fmt.Println("withholding attack detected: digest mismatch with auxiliary node")
	} else {
		log.Fatal("withholding attack went undetected!")
	}

	// Equation 6 in action: required identical digests for 99.9%
	// confidence under various Byzantine ratios.
	fmt.Println("\nrequired m (of n=20 auxiliaries, θ < 0.001):")
	for _, p := range []float64{0.1, 0.2, 0.3} {
		m := auth.MinIdenticalFor(p, 20, 20, 0.001)
		if m == 0 {
			fmt.Printf("  p=%.1f → unachievable with n=20 (ask more auxiliaries)\n", p)
			continue
		}
		fmt.Printf("  p=%.1f → m=%d\n", p, m)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
