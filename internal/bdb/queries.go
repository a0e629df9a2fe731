package bdb

import "oblidb/internal/table"

// The three Big Data Benchmark queries as the paper runs them (§7.1), as
// SQL text; Q3's BETWEEN is spelled as two comparisons. The predicates
// below are the same filters as Go functions, for the non-secure
// reference executor and for comparators that call operators directly.
const (
	Q1SQL = "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 1000"
	Q2SQL = "SELECT SUBSTR(sourceIP, 1, 8), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 8)"
	Q3SQL = "SELECT sourceIP, SUM(adRevenue), AVG(pageRank) FROM rankings JOIN uservisits ON pageURL = destURL " +
		"WHERE visitDate >= '" + Q3DateLo + "' AND visitDate <= '" + Q3DateHi + "' GROUP BY sourceIP"
)

// Q1Pred matches rankings rows with pageRank > Q1Param.
func Q1Pred(r table.Row) bool { return r[1].AsInt() > Q1Param }

// Q2GroupKey is the 8-character sourceIP prefix.
func Q2GroupKey(r table.Row) table.Value {
	ip := r[0].AsString()
	if len(ip) > Q2Param {
		ip = ip[:Q2Param]
	}
	return table.Str(ip)
}

// Q3DatePred matches visits in the query's date window.
func Q3DatePred(r table.Row) bool {
	d := r[2].AsString()
	return d >= Q3DateLo && d <= Q3DateHi
}
