package plan_test

import (
	"math"
	"strings"
	"testing"

	"oblidb/internal/exec"
	"oblidb/internal/plan"
)

func TestReadOnlyEveryNodeKind(t *testing.T) {
	scan := &plan.Scan{Table: "t"}
	cases := []struct {
		node plan.Node
		want bool
	}{
		{&plan.Collect{Input: scan}, true},
		{&plan.Aggregate{Input: scan}, true},
		// Interior nodes are never statement roots; the engine treats
		// anything but Collect and Aggregate as a possible write.
		{scan, false},
		{&plan.IndexScan{Table: "t"}, false},
		{&plan.Filter{Input: scan}, false},
		{&plan.Project{Input: scan}, false},
		{&plan.Join{Left: scan, Right: scan}, false},
		{&plan.GroupBy{Input: scan}, false},
		{&plan.Sort{Input: scan}, false},
		{&plan.Limit{Input: scan, N: 1}, false},
		{&plan.Insert{Table: "t"}, false},
		{&plan.Update{Table: "t"}, false},
		{&plan.Delete{Table: "t"}, false},
		{&plan.Tx{Kind: plan.TxBegin}, false},
	}
	for _, tc := range cases {
		if got := plan.ReadOnly(tc.node); got != tc.want {
			t.Errorf("ReadOnly(%T) = %v, want %v", tc.node, got, tc.want)
		}
	}
}

func TestExplainAnnotatedTrees(t *testing.T) {
	hash := exec.SelectHash
	zeroOM := exec.JoinZeroOM
	annotated := func(alg string, in, out, r, p int, cost int64) plan.Choice {
		return plan.Choice{Algorithm: alg, InBlocks: in, OutBlocks: out, RowsPerBlock: r, Parallelism: p, Cost: cost}
	}
	cases := []struct {
		name string
		root plan.Node
		want []string
	}{
		{"forced parallel filter over a scan",
			&plan.Collect{Input: &plan.Filter{
				Input:   &plan.Scan{Table: "t", Choice: plan.Choice{InBlocks: 8, RowsPerBlock: 4}},
				CondSQL: "(v > 1)", Force: &hash,
				Choice: annotated("Hash", 8, 8, 4, 4, 40),
			}},
			[]string{
				"Collect",
				"└─ Filter (v > 1) FORCE Hash [alg=Hash blocks=8→8 R=4 P=4 cost≈40]",
				"   └─ Scan t [blocks=8 R=4]",
			}},
		{"index scan with both method prices",
			&plan.Collect{Input: &plan.Project{
				Items: []plan.ProjItem{{Name: "k"}, {Name: "v"}},
				Input: &plan.Filter{
					Input: &plan.IndexScan{Table: "kv", KeyCol: "k", Range: plan.KeyRange{Lo: 5, Hi: 5},
						IndexCost: 120, FlatCost: 500, Choice: plan.Choice{Algorithm: "Index", InBlocks: 500}},
					Choice: plan.Choice{Algorithm: "Small", Estimated: true, InBlocks: 1, OutBlocks: 1},
				},
			}},
			[]string{
				"Collect",
				"└─ Project k, v",
				"   └─ Filter * [alg≈Small blocks=1→1]",
				"      └─ IndexScan kv (k = 5) [alg≈Index index≈120 flat≈500 blocks≤500]",
			}},
		{"unannotated index scans render their ranges",
			&plan.Join{
				Left:      &plan.IndexScan{Table: "a", KeyCol: "k", Range: plan.KeyRange{Lo: 3, Hi: math.MaxInt64}, Choice: plan.Choice{InBlocks: 7}},
				Right:     &plan.IndexScan{Table: "b", KeyCol: "k", Range: plan.KeyRange{Lo: math.MinInt64, Hi: 9}},
				LeftTable: "a", RightTable: "b", LeftCol: "k", RightCol: "k",
			},
			[]string{
				"Join a.k = b.k",
				"├─ IndexScan a (k >= 3) [blocks≤7]",
				"└─ IndexScan b (k <= 9)",
			}},
		{"forced join with a filtered side",
			&plan.Collect{Input: &plan.Join{
				Left:      &plan.Scan{Table: "l"},
				Right:     &plan.Filter{Input: &plan.Scan{Table: "r"}, CondSQL: "(x = 1)"},
				LeftTable: "l", RightTable: "r", LeftCol: "pk", RightCol: "fk",
				Force: &zeroOM, Choice: annotated("0-OM", 12, 20, 1, 1, 900),
			}},
			[]string{
				"Collect",
				"└─ Join l.pk = r.fk FORCE 0-OM [alg=0-OM blocks=12→20 cost≈900]",
				"   ├─ Scan l",
				"   └─ Filter (x = 1)",
				"      └─ Scan r",
			}},
		{"fused aggregate",
			&plan.Aggregate{
				Input: &plan.Filter{Input: &plan.Scan{Table: "t"}, CondSQL: "(v > 1)"},
				Specs: []plan.AggSpec{{Kind: exec.AggCount, Name: "COUNT(*)"}, {Kind: exec.AggSum, Column: "v", Name: "SUM(v)"}},
			},
			[]string{
				"Aggregate COUNT(*), SUM(v)",
				"└─ Filter (v > 1)",
				"   └─ Scan t",
			}},
		{"ordered, limited group-by",
			&plan.Collect{Input: &plan.Limit{N: 5, Input: &plan.Sort{
				KeySQL: "g", Desc: true, Choice: annotated("Bitonic", 4, 4, 2, 1, 64),
				Input: &plan.GroupBy{
					Input:  &plan.Scan{Table: "t"},
					KeySQL: "SUBSTR(ip, 1, 8)", Specs: []plan.AggSpec{{Kind: exec.AggSum, Column: "rev", Name: "SUM(rev)"}},
					Choice: annotated("Hash", 16, 4, 2, 2, 96),
				},
				Key: "g",
			}}},
			[]string{
				"Collect",
				"└─ Limit 5",
				"   └─ Sort g DESC [alg=Bitonic blocks=4→4 R=2 cost≈64]",
				"      └─ GroupBy SUBSTR(ip, 1, 8): SUM(rev) [alg=Hash blocks=16→4 R=2 P=2 cost≈96]",
				"         └─ Scan t",
			}},
		{"compaction sort",
			&plan.Sort{Input: &plan.Scan{Table: "t"}},
			[]string{"Sort (compact)", "└─ Scan t"}},
		{"insert", &plan.Insert{Table: "t", Rows: make([][]plan.Expr, 2)}, []string{"Insert t (2 row(s))"}},
		{"update narrowed by a key range",
			&plan.Update{Table: "t", Sets: make([]plan.SetExpr, 1), CondSQL: "(k > 0)", Key: &plan.KeyRange{Lo: 1, Hi: 9}, KeyCol: "k"},
			[]string{"Update t (1 set(s)) WHERE (k > 0) via k in [1, 9]"}},
		{"delete narrowed by a key range",
			&plan.Delete{Table: "t", CondSQL: "(k = 4)", Key: &plan.KeyRange{Lo: 4, Hi: 4}, KeyCol: "k"},
			[]string{"Delete t WHERE (k = 4) via k = 4"}},
		{"transaction control", &plan.Tx{Kind: plan.TxCommit}, []string{"Tx COMMIT"}},
	}
	for _, tc := range cases {
		got := plan.Explain(tc.root)
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s:\ngot\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
