package bdb

import (
	"strings"
	"testing"

	"oblidb/internal/baseline"
	"oblidb/internal/core"
	"oblidb/internal/sql"
	"oblidb/internal/table"
)

func smallGen() Gen { return Gen{Rankings: 800, UserVisits: 700, Seed: 42} }

func TestGeneratorsDeterministic(t *testing.T) {
	a := smallGen().GenRankings()
	b := smallGen().GenRankings()
	if len(a) != 800 || len(b) != 800 {
		t.Fatalf("row counts %d/%d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				t.Fatal("generator not deterministic")
			}
		}
	}
}

func TestGeneratorProperties(t *testing.T) {
	g := smallGen()
	ranks := g.GenRankings()
	over := 0
	urls := map[string]bool{}
	for _, r := range ranks {
		if r[1].AsInt() > Q1Param {
			over++
		}
		urls[r[0].AsString()] = true
	}
	// ~1.2% selectivity for Q1 at any scale.
	if over == 0 || over > len(ranks)/20 {
		t.Fatalf("Q1 matches %d of %d; want ~1%%", over, len(ranks))
	}
	if len(urls) != len(ranks) {
		t.Fatal("pageURL is not unique (FK join needs a primary side)")
	}
	visits := g.GenUserVisits()
	inWindow := 0
	for _, v := range visits {
		if !urls[v[1].AsString()] {
			t.Fatalf("destURL %q not in rankings", v[1].AsString())
		}
		d := v[2].AsString()
		if len(d) != 10 || d[4] != '-' {
			t.Fatalf("bad date %q", d)
		}
		if Q3DatePred(v) {
			inWindow++
		}
	}
	if inWindow == 0 || inWindow > len(visits)/10 {
		t.Fatalf("Q3 window keeps %d of %d; want small fraction", inWindow, len(visits))
	}
}

func TestPaperScaleDefaults(t *testing.T) {
	g := Gen{}
	if g.rankings() != PaperRankings || g.userVisits() != PaperUserVisits {
		t.Fatal("zero Gen must mean paper scale")
	}
	s := Scaled(0.1, 1)
	if s.Rankings != 36000 || s.UserVisits != 35000 {
		t.Fatalf("scaled = %+v", s)
	}
}

// plainResults computes Q1-Q3 ground truth with the non-secure executor.
func plainResults(g Gen) (q1 int, q2 map[string]float64, q3 map[string]float64) {
	ranks := baseline.NewPlainTable(RankingsSchema())
	ranks.Insert(g.GenRankings()...)
	visits := baseline.NewPlainTable(UserVisitsSchema())
	visits.Insert(g.GenUserVisits()...)

	q1 = len(ranks.Select(Q1Pred))
	q2 = visits.GroupSum(table.All, func(r table.Row) string {
		return Q2GroupKey(r).AsString()
	}, 3)
	filtered := baseline.NewPlainTable(UserVisitsSchema())
	filtered.Insert(visits.Select(Q3DatePred)...)
	joined := baseline.HashJoin(ranks, filtered, 0, 1)
	q3 = map[string]float64{}
	for _, r := range joined {
		q3[r[3].AsString()] += r[6].AsFloat()
	}
	return
}

func TestQueriesMatchPlainExecutor(t *testing.T) {
	g := smallGen()
	wantQ1, wantQ2, wantQ3 := plainResults(g)

	for _, useIndex := range []bool{false, true} {
		db := core.MustOpen(core.Config{})
		kind := core.KindFlat
		if useIndex {
			kind = core.KindBoth
		}
		if err := Load(db, g, LoadOptions{RankingsKind: kind}); err != nil {
			t.Fatal(err)
		}
		x := sql.New(db)
		res, err := x.Execute(Q1SQL)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != wantQ1 {
			t.Fatalf("useIndex=%v: Q1 = %d rows, want %d", useIndex, len(res.Rows), wantQ1)
		}
		if len(res.Cols) != 2 {
			t.Fatalf("Q1 cols = %v", res.Cols)
		}

		res, err = x.Execute(Q2SQL)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(wantQ2) {
			t.Fatalf("Q2 groups = %d, want %d", len(res.Rows), len(wantQ2))
		}
		for _, r := range res.Rows {
			want := wantQ2[r[0].AsString()]
			if diff := r[1].AsFloat() - want; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("Q2 group %q = %v, want %v", r[0].AsString(), r[1].AsFloat(), want)
			}
		}

		res, err = x.Execute(Q3SQL)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(wantQ3) {
			t.Fatalf("Q3 groups = %d, want %d", len(res.Rows), len(wantQ3))
		}
		for _, r := range res.Rows {
			want := wantQ3[r[0].AsString()]
			if diff := r[1].AsFloat() - want; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("Q3 group %q = %v, want %v", r[0].AsString(), r[1].AsFloat(), want)
			}
		}
	}
}

func TestCFPB(t *testing.T) {
	rows := GenCFPB(500, 7)
	if len(rows) != 500 {
		t.Fatalf("%d rows", len(rows))
	}
	products := map[string]bool{}
	for _, r := range rows {
		products[r[1].AsString()] = true
		if !strings.Contains(r[3].AsString(), "-") {
			t.Fatalf("bad date %v", r[3])
		}
	}
	if len(products) < 5 {
		t.Fatalf("only %d products", len(products))
	}
	if len(GenCFPB(0, 1)) != PaperCFPB {
		t.Fatal("default CFPB size wrong")
	}
}
