// Padding: the paper's padding mode (§2.3, §7.2). In normal mode ObliDB
// leaks result and intermediate table sizes — often acceptable, sometimes
// not (how many orders did this customer place?). Padding mode pads every
// intermediate and result table to a fixed bound so even sizes are
// hidden, at a measurable cost this example prints.
package main

import (
	"fmt"
	"log"
	"time"

	"oblidb/internal/bdb"
	"oblidb/internal/core"
	"oblidb/internal/exec"
	"oblidb/internal/table"
)

func main() {
	const rows = 5000
	padRows := rows * 200 / 107   // the paper's 107k→200k ratio
	padGroups := rows * 350 / 107 // its "maximum supported groups"
	data := bdb.GenCFPB(rows, 3)

	run := func(padding bool) (sel, agg time.Duration, matched int) {
		cfg := core.Config{}
		if padding {
			cfg.Padding = core.PaddingConfig{Enabled: true, PadRows: padRows, PadGroups: padGroups}
		}
		db := core.MustOpen(cfg)
		if _, err := db.CreateTable("complaints", bdb.CFPBSchema(), core.TableOptions{Capacity: rows + 1}); err != nil {
			log.Fatal(err)
		}
		if err := db.BulkLoad("complaints", data); err != nil {
			log.Fatal(err)
		}

		// Padding mode never plans; the normal run forces the same
		// general-purpose operator so the ratio isolates padding's cost.
		opts := core.SelectOptions{}
		if !padding {
			hash := exec.SelectHash
			opts.Force = &hash
		}
		start := time.Now()
		if _, err := db.Select("complaints",
			func(r table.Row) bool { return r[2].AsString() == "CA" },
			opts); err != nil {
			log.Fatal(err)
		}
		sel = time.Since(start)
		matched = db.LastPlan.Stats.Matching

		start = time.Now()
		if _, err := db.GroupAggregate("complaints", nil,
			func(r table.Row) table.Value { return r[1] }, // by product
			[]core.AggregateSpec{{Kind: exec.AggCount}}, nil); err != nil {
			log.Fatal(err)
		}
		agg = time.Since(start)
		return
	}

	fmt.Printf("CFPB complaints table: %d rows; padded to %d rows, %d groups\n\n", rows, padRows, padGroups)
	selN, aggN, matched := run(false)
	selP, aggP, _ := run(true)

	fmt.Println("                         normal      padded    slowdown")
	fmt.Printf("  select state='CA'   %9s  %9s      %.1f×\n",
		selN.Round(time.Millisecond), selP.Round(time.Millisecond), float64(selP)/float64(selN))
	fmt.Printf("  group by product    %9s  %9s      %.1f×\n\n",
		aggN.Round(time.Millisecond), aggP.Round(time.Millisecond), float64(aggP)/float64(aggN))

	fmt.Printf("  output structure:   sized to |R| = %d rows (leaks |R|)  vs  to the bound, %d rows\n", matched, padRows)
	fmt.Println("  The paper reports 2.4× (select) and 4.4× (aggregate) for a 107k-row table")
	fmt.Println("  padded to 200k (§7.2); the shape — aggregates pay more because group")
	fmt.Println("  output pads to the maximum group count — holds here too.")
}
