// Planner: the paper's query planner (§5) choosing among the four
// oblivious SELECT algorithms. The planner sees only what the adversary
// already sees — table and output sizes, and contiguity — yet its picks
// beat the general-purpose algorithm by the margins Figure 13 reports.
package main

import (
	"fmt"
	"log"
	"time"

	"oblidb/internal/core"
	"oblidb/internal/exec"
	"oblidb/internal/table"
	"oblidb/internal/workload"
)

func main() {
	const n = 20000
	db := core.MustOpen(core.Config{})
	if err := workload.Setup(db, "t", core.KindFlat, n); err != nil {
		log.Fatal(err)
	}

	scenarios := []struct {
		name string
		pred table.Pred
	}{
		{"3% scattered", func(r table.Row) bool { return r[0].AsInt()%33 == 0 }},
		{"3% contiguous", func(r table.Row) bool { k := r[0].AsInt(); return k >= 5000 && k < 5600 }},
		{"95% of table", func(r table.Row) bool { return r[0].AsInt()%20 != 0 }},
	}

	fmt.Printf("Planner decisions on a %d-row table\n\n", n)
	for _, sc := range scenarios {
		// Planner's choice.
		start := time.Now()
		if _, err := db.Select("t", sc.pred, core.SelectOptions{}); err != nil {
			log.Fatal(err)
		}
		chosen := db.LastPlan.SelectAlg
		chosenTime := time.Since(start)

		// The general-purpose algorithm, forced, for comparison.
		hash := exec.SelectHash
		start = time.Now()
		if _, err := db.Select("t", sc.pred, core.SelectOptions{Force: &hash}); err != nil {
			log.Fatal(err)
		}
		hashTime := time.Since(start)

		fmt.Printf("  %-15s planner chose %-11s %9s   (Hash would take %9s, %.1f× slower)\n",
			sc.name, chosen.String()+",", chosenTime.Round(time.Millisecond),
			hashTime.Round(time.Millisecond), float64(hashTime)/float64(chosenTime))
		fmt.Printf("  %15s stats scan saw %d matching rows, contiguous=%v\n\n",
			"", db.LastPlan.Stats.Matching, db.LastPlan.Stats.Contiguous)
	}

	fmt.Println("The choice itself is the only leakage planning adds — and it is computed")
	fmt.Println("from sizes the adversary already observes (§5).")
}
