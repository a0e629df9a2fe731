// Command oblidb-cli is an interactive SQL shell over the ObliDB engine:
// by default a fresh in-enclave database per session, the full oblivious
// operator set behind every statement.
//
//	$ oblidb-cli
//	oblidb> CREATE TABLE t (id INTEGER, name VARCHAR(16)) INDEX ON id
//	oblidb> INSERT INTO t VALUES (1, 'alice'), (2, 'bob')
//	oblidb> SELECT * FROM t WHERE id = 2
//	oblidb> \prepare byid SELECT name FROM t WHERE id = $1
//	oblidb> \exec byid 1
//
// \prepare parses a parameterized statement shape once under a name;
// \exec runs it with bound arguments (integers, floats, 'strings',
// TRUE/FALSE, NULL). In connect mode the shape is prepared server-side
// and the arguments travel as typed wire values.
//
// With -connect host:port the shell becomes a network client of an
// oblidb-server instead: statements travel the wire protocol and run
// inside the server's epoch scheduler, so per-statement latency is
// quantized to the server's epoch cadence.
//
// Flags tune the local enclave: -memory sets the oblivious-memory
// budget, -pad enables padding mode (both ignored with -connect; the
// server owns its engine).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/sql"
	"oblidb/internal/table"
)

func main() {
	memory := flag.Int("memory", 0, "oblivious memory budget in bytes (0 = paper default 20 MB)")
	pad := flag.Int("pad", 0, "padding mode: pad intermediate tables to this many rows (0 = off)")
	showTime := flag.Bool("time", true, "print per-statement execution time")
	connect := flag.String("connect", "", "connect to an oblidb-server at host:port instead of embedding an engine")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *memory, *pad, *showTime, *connect); err != nil {
		fmt.Fprintln(os.Stderr, "oblidb-cli:", err)
		os.Exit(1)
	}
}

// run drives the shell: statements read from in, results written to
// out. main wires it to stdin/stdout; tests drive it with buffers.
func run(in io.Reader, out io.Writer, memory, pad int, showTime bool, connect string) error {
	var db *core.DB
	var exec *sql.Executor
	var conn *client.Conn
	var tx sql.TxState // embedded mode; in connect mode the server owns it
	localPrepared := make(map[string]*sql.Prepared)
	remotePrepared := make(map[string]*client.Stmt)

	if connect != "" {
		var err error
		conn, err = client.Dial(connect)
		if err != nil {
			return err
		}
		defer conn.Close()
		fmt.Fprintf(out, "ObliDB shell — connected to %s (type \\q to quit, \\help for help)\n", connect)
	} else {
		cfg := core.Config{ObliviousMemory: memory}
		if pad > 0 {
			cfg.Padding = core.PaddingConfig{Enabled: true, PadRows: pad, PadGroups: pad}
		}
		var err error
		db, err = core.Open(cfg)
		if err != nil {
			return err
		}
		exec = sql.New(db)
		fmt.Fprintln(out, "ObliDB shell — oblivious query processing (type \\q to quit, \\help for help)")
	}

	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "oblidb> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			// Distinguish EOF (clean exit) from a read error.
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "exit" || line == "quit":
			return nil
		case line == `\help`:
			printHelp(out, conn != nil)
			continue
		case line == `\tables`:
			if conn != nil {
				fmt.Fprintln(out, `  \tables is unavailable in connect mode`)
				continue
			}
			for _, t := range db.Tables() {
				fmt.Fprintln(out, " ", t)
			}
			continue
		case line == `\mem`:
			if conn != nil {
				fmt.Fprintln(out, `  \mem is unavailable in connect mode; try \stats`)
				continue
			}
			e := db.Enclave()
			fmt.Fprintf(out, "  oblivious memory: %d of %d bytes in use (peak %d)\n",
				e.Budget()-e.Available(), e.Budget(), e.PeakUsed())
			continue
		case line == `\prepare`:
			fmt.Fprintln(out, `usage: \prepare name <sql>`)
			continue
		case line == `\exec`:
			fmt.Fprintln(out, `usage: \exec name [arg1 arg2 ...]`)
			continue
		case strings.HasPrefix(line, `\prepare `):
			rest := strings.TrimSpace(strings.TrimPrefix(line, `\prepare `))
			name, stmtSQL, ok := strings.Cut(rest, " ")
			if !ok || name == "" || strings.TrimSpace(stmtSQL) == "" {
				fmt.Fprintln(out, `usage: \prepare name <sql>`)
				continue
			}
			stmtSQL = strings.TrimSpace(stmtSQL)
			if conn != nil {
				st, err := conn.Prepare(stmtSQL)
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					continue
				}
				if old, exists := remotePrepared[name]; exists {
					old.Close()
				}
				remotePrepared[name] = st
				fmt.Fprintf(out, "prepared %q (%d parameter(s))\n", name, st.NumParams())
			} else {
				st, err := exec.Prepare(stmtSQL)
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					continue
				}
				localPrepared[name] = st
				fmt.Fprintf(out, "prepared %q (%d parameter(s))\n", name, st.NumParams())
			}
			continue
		case strings.HasPrefix(line, `\exec `):
			rest := strings.TrimSpace(strings.TrimPrefix(line, `\exec `))
			name, argSrc, _ := strings.Cut(rest, " ")
			if name == "" {
				fmt.Fprintln(out, `usage: \exec name [arg1 arg2 ...]`)
				continue
			}
			args, err := parseShellArgs(argSrc)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			start := time.Now()
			var cols []string
			var rows []table.Row
			if conn != nil {
				st, ok := remotePrepared[name]
				if !ok {
					fmt.Fprintf(out, "error: no prepared statement %q (use \\prepare)\n", name)
					continue
				}
				anyArgs := make([]any, len(args))
				for i, v := range args {
					anyArgs[i] = v
				}
				res, err := st.Exec(anyArgs...)
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					continue
				}
				if res != nil {
					cols, rows = res.Cols, res.Rows
				}
			} else {
				st, ok := localPrepared[name]
				if !ok {
					fmt.Fprintf(out, "error: no prepared statement %q (use \\prepare)\n", name)
					continue
				}
				res, err := tx.Route(sql.Local(exec), st, args)
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					continue
				}
				if res != nil {
					cols, rows = res.Cols, res.Rows
				}
			}
			printResult(out, cols, rows)
			if showTime {
				fmt.Fprintf(out, "(%s)\n", time.Since(start).Round(time.Microsecond))
			}
			continue
		case line == `\stats`:
			if conn == nil {
				cs := exec.CacheStats()
				fmt.Fprintf(out, "  plan cache: %d shape(s); %d hit(s), %d miss(es); %d compile(s), %d replay(s)\n",
					cs.Entries, cs.Hits, cs.Misses, cs.Compiles, cs.CompileSkips)
				printPicks(out, db.PlanStats())
				continue
			}
			st, err := conn.ServerStats()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "  epochs: %d × %d slots; statements: %d real, %d dummy; sessions: %d; up %s\n",
				st.Epochs, st.EpochSize, st.Real, st.Dummy, st.Sessions,
				(time.Duration(st.UptimeMillis) * time.Millisecond).Round(time.Millisecond))
			fmt.Fprintf(out, "  plan cache: %d shape(s); %d hit(s), %d miss(es); %d compile(s), %d replay(s)\n",
				st.PlanEntries, st.PlanHits, st.PlanMisses, st.PlanCompiles, st.PlanCompileSkips)
			if len(st.Picks) > 0 {
				parts := make([]string, len(st.Picks))
				for i, p := range st.Picks {
					parts[i] = fmt.Sprintf("%s=%d", p.Name, p.Count)
				}
				fmt.Fprintf(out, "  operator picks: %s\n", strings.Join(parts, " "))
			}
			cs := conn.Stats()
			fmt.Fprintf(out, "  connection: %d frame(s) sent (%d B), %d received (%d B), %d pending",
				cs.FramesSent, cs.BytesWritten, cs.FramesReceived, cs.BytesRead, cs.Pending)
			if cs.LastError != "" {
				fmt.Fprintf(out, "; last error: %s", cs.LastError)
			}
			fmt.Fprintln(out)
			printMetricsJSON(out, st.MetricsJSON)
			continue
		case line == `\explain`:
			fmt.Fprintln(out, `usage: \explain <sql>`)
			continue
		case strings.HasPrefix(line, `\explain `):
			stmtSQL := strings.TrimSpace(strings.TrimPrefix(line, `\explain `))
			var planRows []table.Row
			var err error
			if conn != nil {
				var r *client.Result
				if r, err = conn.Exec("EXPLAIN " + stmtSQL); err == nil && r != nil {
					planRows = r.Rows
				}
			} else {
				var r *core.Result
				if r, err = exec.Execute("EXPLAIN " + stmtSQL); err == nil && r != nil {
					planRows = r.Rows
				}
			}
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			for _, r := range planRows {
				fmt.Fprintln(out, " ", r[0].AsString())
			}
			continue
		}

		start := time.Now()
		var cols []string
		var rows []table.Row
		var err error
		if conn != nil {
			var res *client.Result
			if res, err = conn.Exec(line); err == nil && res != nil {
				cols, rows = res.Cols, res.Rows
			}
		} else {
			var res *core.Result
			if res, err = runLocal(exec, &tx, line); err == nil && res != nil {
				cols, rows = res.Cols, res.Rows
			}
		}
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			continue
		}
		printResult(out, cols, rows)
		if showTime {
			if conn == nil && len(cols) > 0 && cols[0] != "affected" {
				fmt.Fprintf(out, "(%s; plan: select=%s join=%s)\n",
					elapsed.Round(time.Microsecond), db.LastPlan.SelectAlg, db.LastPlan.JoinAlg)
			} else {
				// Connect mode has no plan to show (the server keeps its
				// engine private) and the time includes the epoch wait.
				fmt.Fprintf(out, "(%s)\n", elapsed.Round(time.Microsecond))
			}
		}
	}
}

// runLocal executes one statement line in the embedded engine through
// the shell's transaction state.
func runLocal(x *sql.Executor, tx *sql.TxState, line string) (*core.Result, error) {
	prep, err := x.PrepareOneShot(line)
	if err != nil {
		return nil, err
	}
	if prep.NumParams() > 0 {
		return nil, fmt.Errorf("statement has parameters; use \\prepare and \\exec")
	}
	return tx.Route(sql.Local(x), prep, nil)
}

// printMetricsJSON renders a server's metrics snapshot
// (wire.Stats.MetricsJSON): one line per family, names sorted, values
// rendered compactly. Histograms show count and sum; labeled families
// list label=value pairs.
func printMetricsJSON(out io.Writer, metricsJSON string) {
	var snap map[string]any
	if err := json.Unmarshal([]byte(metricsJSON), &snap); err != nil {
		fmt.Fprintf(out, "  metrics: unreadable snapshot: %v\n", err)
		return
	}
	fmt.Fprintf(out, "  metrics (%d families):\n", len(snap))
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "    %s: %s\n", name, renderMetricValue(snap[name]))
	}
}

func renderMetricValue(v any) string {
	switch v := v.(type) {
	case map[string]any:
		if _, ok := v["buckets"]; ok {
			// Histogram: count and sum say most of it at a glance.
			return fmt.Sprintf("count=%s sum=%s",
				renderMetricValue(v["count"]), renderMetricValue(v["sum"]))
		}
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + renderMetricValue(v[k])
		}
		return strings.Join(parts, " ")
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case nil:
		return "0"
	}
	return fmt.Sprint(v)
}

// printPicks renders the engine's per-algorithm pick counters.
func printPicks(out io.Writer, p core.PickStats) {
	var parts []string
	for _, name := range sortedKeys(p.Select) {
		parts = append(parts, fmt.Sprintf("select.%s=%d", name, p.Select[name]))
	}
	for _, name := range sortedKeys(p.Join) {
		parts = append(parts, fmt.Sprintf("join.%s=%d", name, p.Join[name]))
	}
	if p.Sorts > 0 {
		parts = append(parts, fmt.Sprintf("sort=%d", p.Sorts))
	}
	if p.Limits > 0 {
		parts = append(parts, fmt.Sprintf("limit=%d", p.Limits))
	}
	if len(parts) > 0 {
		fmt.Fprintf(out, "  operator picks: %s\n", strings.Join(parts, " "))
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseShellArgs parses \exec arguments: integers, floats, 'quoted
// strings' (with ” escaping), TRUE/FALSE, and NULL, separated by
// whitespace.
func parseShellArgs(src string) ([]table.Value, error) {
	var args []table.Value
	i := 0
	for {
		for i < len(src) && (src[i] == ' ' || src[i] == '\t') {
			i++
		}
		if i >= len(src) {
			return args, nil
		}
		if src[i] == '\'' {
			var sb strings.Builder
			i++
			for {
				if i >= len(src) {
					return nil, fmt.Errorf("unterminated string argument")
				}
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			args = append(args, table.Str(sb.String()))
			continue
		}
		start := i
		for i < len(src) && src[i] != ' ' && src[i] != '\t' {
			i++
		}
		word := src[start:i]
		switch strings.ToUpper(word) {
		case "TRUE":
			args = append(args, table.Bool(true))
			continue
		case "FALSE":
			args = append(args, table.Bool(false))
			continue
		case "NULL":
			args = append(args, table.Null())
			continue
		}
		if strings.ContainsAny(word, ".eE") && word != "-" {
			if f, err := strconv.ParseFloat(word, 64); err == nil {
				args = append(args, table.Float(f))
				continue
			}
		}
		if n, err := strconv.ParseInt(word, 10, 64); err == nil {
			args = append(args, table.Int(n))
			continue
		}
		return nil, fmt.Errorf("cannot parse argument %q (quote strings with '...')", word)
	}
}

func printResult(out io.Writer, cols []string, rows []table.Row) {
	if len(cols) == 0 {
		return
	}
	fmt.Fprintln(out, strings.Join(cols, " | "))
	limit := len(rows)
	const maxShow = 40
	if limit > maxShow {
		limit = maxShow
	}
	for _, r := range rows[:limit] {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		fmt.Fprintln(out, strings.Join(cells, " | "))
	}
	if len(rows) > limit {
		fmt.Fprintf(out, "... (%d rows total)\n", len(rows))
	}
}

func printHelp(out io.Writer, connected bool) {
	fmt.Fprint(out, `Statements:
  CREATE TABLE t (col TYPE, ...) [STORAGE = FLAT|INDEXED|BOTH] [INDEX ON col] [CAPACITY = n]
  INSERT INTO t VALUES (...), (...)
  SELECT cols|aggregates FROM t [JOIN t2 ON a = b] [WHERE expr] [GROUP BY expr]
         [ORDER BY col [ASC|DESC]] [LIMIT n] [FORCE alg]
  UPDATE t SET col = expr [WHERE expr]
  DELETE FROM t [WHERE expr]
  DROP TABLE t
  EXPLAIN <stmt>                 show the physical plan instead of executing
Types: INTEGER, FLOAT, VARCHAR(n), BOOLEAN, DATE (stored as days since epoch)
Aggregates: COUNT(*), SUM, AVG, MIN, MAX; functions: SUBSTR(s, start, len)
Statements take ? or $n placeholders when prepared:
  \prepare name <sql>            parse once, keep under a name
  \exec name arg1 arg2 ...       run it with bound arguments
                                 (args: 42, 1.5, 'text', TRUE, NULL)
  \explain <sql>                 shorthand for EXPLAIN <sql>
`)
	if connected {
		fmt.Fprintln(out, `Meta: \prepare, \exec, \explain, \stats, \q`)
	} else {
		fmt.Fprintln(out, `Meta: \prepare, \exec, \explain, \stats, \tables, \mem, \q`)
	}
}
