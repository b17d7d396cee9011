// Package bench implements BChainBench, the paper's mini-benchmark for
// blockchain databases (§VII-A): the seven-table donation schema, a
// data generator controlling both the time dimension (how resulting
// transactions spread across blocks — uniform or Gaussian) and the
// attribute-value dimension (result sizes), the Q1-Q7 workload, and the
// registry of evaluation figures (figures.go), each defined once and
// run by the drivers in driver.go.
package bench

import (
	"fmt"

	"sebdb/internal/core"
	"sebdb/internal/rdbms"
	"sebdb/internal/types"
)

// On-chain DDL for the three main tables (Fig. 6).
var onChainDDL = []string{
	`CREATE donate (donor string, project string, amount decimal)`,
	`CREATE transfer (project string, donor string, organization string, amount decimal)`,
	`CREATE distribute (project string, donor string, organization string, donee string, amount decimal)`,
}

// SetupSchema creates the on-chain tables and packages the schema block
// at timestamp 1, so data blocks own the rest of the time axis.
func SetupSchema(e *core.Engine) error {
	for _, ddl := range onChainDDL {
		if _, err := e.Execute(ddl); err != nil {
			return err
		}
	}
	return e.FlushAt(1)
}

// SetupOffChain creates the four off-chain tables (DonorInfo kept by
// the charity, DoneeInfo by schools, ChildrenInfo by the welfare,
// Customer by the nursing home) and loads rows rows into each.
func SetupOffChain(db *rdbms.DB, rows int) error {
	tables := map[string][]rdbms.Column{
		"donorinfo": {
			{Name: "donor", Kind: types.KindString},
			{Name: "name", Kind: types.KindString},
			{Name: "age", Kind: types.KindInt},
		},
		"doneeinfo": {
			{Name: "donee", Kind: types.KindString},
			{Name: "school", Kind: types.KindString},
			{Name: "income", Kind: types.KindDecimal},
		},
		"childreninfo": {
			{Name: "child", Kind: types.KindString},
			{Name: "welfare", Kind: types.KindString},
			{Name: "age", Kind: types.KindInt},
		},
		"customer": {
			{Name: "customer", Kind: types.KindString},
			{Name: "home", Kind: types.KindString},
			{Name: "age", Kind: types.KindInt},
		},
	}
	for name, cols := range tables {
		if err := db.CreateTable(name, cols); err != nil {
			return err
		}
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("donorinfo", rdbms.Row{
			types.Str(fmt.Sprintf("donor%06d", i)),
			types.Str(fmt.Sprintf("name%d", i)),
			types.Int(int64(20 + i%60)),
		}); err != nil {
			return err
		}
		if err := db.Insert("doneeinfo", rdbms.Row{
			types.Str(fmt.Sprintf("donee%06d", i)),
			types.Str(fmt.Sprintf("school%d", i%50)),
			types.Dec(float64(1000 + i)),
		}); err != nil {
			return err
		}
		if err := db.Insert("childreninfo", rdbms.Row{
			types.Str(fmt.Sprintf("child%06d", i)),
			types.Str(fmt.Sprintf("welfare%d", i%10)),
			types.Int(int64(3 + i%15)),
		}); err != nil {
			return err
		}
		if err := db.Insert("customer", rdbms.Row{
			types.Str(fmt.Sprintf("cust%06d", i)),
			types.Str(fmt.Sprintf("home%d", i%10)),
			types.Int(int64(60 + i%40)),
		}); err != nil {
			return err
		}
	}
	return nil
}
