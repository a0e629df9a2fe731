package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"time"

	"oblidb/internal/baseline"
	"oblidb/internal/bdb"
	"oblidb/internal/core"
	"oblidb/internal/crypt"
	"oblidb/internal/server"
	"oblidb/internal/sql"
	"oblidb/internal/table"
	"oblidb/internal/wal"
	"oblidb/internal/wire"
)

// Load shape shared by every workload (see README.md). The epoch
// interval is far below the server's 5 ms default so that every workload
// is bound by work the program does, not by the ticker.
const (
	epochSize     = 8
	epochInterval = 200 * time.Microsecond
	loadConns     = 2 // = nproc of the reference box
	loadDepth     = 4 // statements in flight per connection
)

// statement is one generated request plus the check of its reply.
type statement struct {
	kind  string
	sql   string
	args  []any // non-nil: sql is a prepared text executed with these arguments
	check func(*wire.Result) error
}

// stream is one worker's deterministic statement sequence. Workers own
// disjoint key classes, so every reply is checkable without coordination.
type stream interface{ next() statement }

// env is one set-up instance of a workload: a live server on loopback
// with the workload's tables loaded.
type env struct {
	srv     *server.Server
	db      *core.DB
	addr    string
	table   string // the workload's main table, the one the rung probes use
	journal *journalFiles
	served  chan error
}

type journalFiles struct {
	log  *wal.Log
	dir  string
	path string
	key  []byte
}

// stopServer closes the server and waits for its accept loop to return.
func (e *env) stopServer() {
	if e.srv != nil {
		e.srv.Close()
		<-e.served
		e.srv = nil
	}
}

// close releases everything set-up made; it is safe after stopServer and
// after the recovery check has closed the journal itself.
func (e *env) close() {
	e.stopServer()
	if e.journal != nil {
		e.journal.remove()
	}
}

func (j *journalFiles) remove() {
	if j.log != nil {
		j.log.Close()
		j.log = nil
	}
	os.RemoveAll(j.dir)
}

// workload is one named traffic mix. setup is what setup_s times; the
// generated rows and expected answers are made once in newWorkload and
// shared by every set-up of the run.
type workload struct {
	name   string
	setup  func(manual bool) (*env, error)
	stream func(worker, nworkers int) stream
	// finish runs the end-of-run checks; it returns how many it made and
	// the ones that failed. recoverS is the journal recovery time, 0
	// when the workload has no journal.
	finish func(e *env, streams []stream) (checks int, failures []error, recoverS float64)
}

type config struct {
	seed     uint64
	scale    float64       // table-size multiplier; 1 except in the smoke test
	scratch  string        // directory for journals
	warm     time.Duration // unmeasured start of the loaded run
	setupFor time.Duration // time to spend repeating set-up for its median
}

var workloadNames = []string{"point_read", "bdb_scan", "mixed_wal", "served_small"}

func newWorkload(name string, cfg config) (*workload, error) {
	switch name {
	case "point_read":
		return kvWorkload(cfg, false), nil
	case "mixed_wal":
		return kvWorkload(cfg, true), nil
	case "bdb_scan":
		return bdbWorkload(cfg), nil
	case "served_small":
		return smallWorkload(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// streams makes the n workers' statement streams.
func (w *workload) streams(n int) []stream {
	out := make([]stream, n)
	for i := range out {
		out[i] = w.stream(i, n)
	}
	return out
}

// serve opens an engine behind a server on a loopback listener.
func serve(engine core.Config, journal *journalFiles, manual bool) (*env, error) {
	sc := server.Config{Engine: engine, EpochSize: epochSize, EpochInterval: epochInterval, Manual: manual}
	if journal != nil {
		sc.WAL = journal.log
	}
	srv, err := server.New(sc)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &env{srv: srv, db: srv.DB(), addr: lis.Addr().String(), journal: journal, served: make(chan error, 1)}
	go func() { e.served <- srv.Serve(lis) }()
	return e, nil
}

func kvSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "k", Kind: table.KindInt},
		table.Column{Name: "payload", Kind: table.KindString, Width: 32},
	)
}

func payload(k int64, version int) string { return fmt.Sprintf("p%d-v%d", k, version) }

func affected(want int64) func(*wire.Result) error {
	return func(r *wire.Result) error {
		if !r.Affected || len(r.Rows) != 1 || r.Rows[0][0].AsInt() != want {
			return fmt.Errorf("want %d affected, got %v", want, r.Rows)
		}
		return nil
	}
}

func oneCount(want int64) func(*wire.Result) error {
	return func(r *wire.Result) error {
		if len(r.Rows) != 1 || r.Rows[0][0].AsInt() != want {
			return fmt.Errorf("want count %d, got %v", want, r.Rows)
		}
		return nil
	}
}

// countRows asks the engine for COUNT(*) in-process: the end-of-run
// check must work on a Manual server too, where no epoch would run it.
func countRows(db *core.DB, name string) (int64, error) {
	r, err := sql.New(db).Execute("SELECT COUNT(*) FROM " + name)
	if err != nil {
		return 0, err
	}
	return r.Rows[0][0].AsInt(), nil
}

func checkCount(db *core.DB, name string, want int64) []error {
	got, err := countRows(db, name)
	if err != nil {
		return []error{err}
	}
	if got != want {
		return []error{fmt.Errorf("%s: COUNT(*) = %d, want %d", name, got, want)}
	}
	return nil
}

// ---- point_read and mixed_wal: the kv table ------------------------------

// kvWorkload builds the 20 000-row flat+index table, at one geometry for
// both workloads. Capacity is three times the row count for two reasons.
// The planner prices a point read at about 600 blocks through the index
// and at capacity/95 through the flat scan, so below roughly 57 000 slots
// it would serve point_read from the flat table and the workload would
// not be the index point query it exists to be. And the mixed workload's
// append cursor gets 40 000 inserts of headroom, twenty times what the
// seed commit issues in a run, before flat inserts would fall back to the
// scanning variant.
func kvWorkload(cfg config, mixed bool) *workload {
	n := int64(math.Max(64, 20000*cfg.scale))
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Str(payload(int64(i), 0))}
	}
	w := &workload{name: "point_read"}
	if mixed {
		w.name = "mixed_wal"
	}
	w.setup = func(manual bool) (*env, error) {
		var j *journalFiles
		if mixed {
			dir, err := os.MkdirTemp(cfg.scratch, "journal-")
			if err != nil {
				return nil, err
			}
			j = &journalFiles{dir: dir, path: filepath.Join(dir, "kv.wal"), key: crypt.NewRandomKey()}
			if j.log, err = wal.Open(j.path, j.key, wal.Options{Sync: true}); err != nil {
				j.remove()
				return nil, err
			}
		}
		e, err := serve(core.Config{Seed: cfg.seed}, j, manual)
		if err != nil {
			if j != nil {
				j.remove()
			}
			return nil, err
		}
		e.table = "kv"
		_, err = e.db.CreateTable("kv", kvSchema(), core.TableOptions{Kind: core.KindBoth, KeyColumn: "k", Capacity: int(3 * n)})
		if err == nil {
			err = e.db.BulkLoad("kv", rows)
		}
		if err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}
	w.stream = func(worker, nworkers int) stream {
		s := &kvStream{n: n, w: int64(worker), nw: int64(nworkers), mixed: mixed,
			rng: rand.New(rand.NewPCG(cfg.seed, uint64(worker)+1)), versions: map[int64]int{}}
		s.fresh = n + s.w
		return s
	}
	w.finish = func(e *env, streams []stream) (int, []error, float64) {
		want := map[int64]string{}
		for _, r := range rows {
			want[r[0].AsInt()] = r[1].AsString()
		}
		for _, st := range streams {
			s := st.(*kvStream)
			for k, v := range s.versions {
				want[k] = payload(k, v)
			}
			for _, k := range s.live {
				want[k] = payload(k, 0)
			}
		}
		fails := checkCount(e.db, "kv", int64(len(want)))
		if !mixed {
			return 1, fails, 0
		}
		recoverS, err := checkRecovery(e, want)
		if err != nil {
			fails = append(fails, err)
		}
		return 2, fails, recoverS
	}
	return w
}

// kvStream is one worker's statements. Reads and updates stay inside the
// worker's residue class of the loaded keys and inserts take fresh keys
// from its own class, so the worker always knows the exact expected reply.
type kvStream struct {
	n, w, nw int64
	mixed    bool
	rng      *rand.Rand
	fresh    int64         // next key this worker inserts
	live     []int64       // keys it inserted and has not yet deleted, oldest first
	versions map[int64]int // payload version of the loaded keys it updated
}

func (s *kvStream) loadedKey() int64 {
	inClass := (s.n - s.w + s.nw - 1) / s.nw
	return s.w + s.nw*s.rng.Int64N(inClass)
}

func (s *kvStream) next() statement {
	op := 99 // point SELECT
	if s.mixed {
		op = s.rng.IntN(100)
	}
	switch {
	case op < 35 || (op < 70 && len(s.live) == 0):
		k := s.fresh
		s.fresh += s.nw
		s.live = append(s.live, k)
		return statement{kind: "insert", check: affected(1),
			sql: fmt.Sprintf("INSERT INTO kv VALUES (%d, '%s')", k, payload(k, 0))}
	case op < 70:
		k := s.live[0]
		s.live = s.live[1:]
		return statement{kind: "delete", check: affected(1),
			sql: fmt.Sprintf("DELETE FROM kv WHERE k = %d", k)}
	case op < 80:
		k := s.loadedKey()
		s.versions[k]++
		return statement{kind: "update", check: affected(1),
			sql: fmt.Sprintf("UPDATE kv SET payload = '%s' WHERE k = %d", payload(k, s.versions[k]), k)}
	}
	k := s.loadedKey()
	want := payload(k, s.versions[k])
	return statement{kind: "select",
		// A literal key: placeholders by design never narrow a key range.
		sql: fmt.Sprintf("SELECT * FROM kv WHERE k = %d", k),
		check: func(r *wire.Result) error {
			if len(r.Rows) != 1 || r.Rows[0][0].AsInt() != k || r.Rows[0][1].AsString() != want {
				return fmt.Errorf("k=%d: want one row with payload %q, got %v", k, want, r.Rows)
			}
			return nil
		}}
}

// checkRecovery is the durability check: it closes the server, opens the
// journal file into a fresh engine with core.DB.Recover, and requires the
// recovered rows to equal the acknowledged writes. Every commit was
// fsynced (wal.Options.Sync), so the file holds all of them; the sandbox
// cannot drop the OS cache, so this checks the journal's contents, not
// the device's behaviour.
func checkRecovery(e *env, want map[int64]string) (float64, error) {
	j := e.journal
	e.stopServer()
	if err := j.log.Close(); err != nil {
		return 0, fmt.Errorf("closing journal: %w", err)
	}
	j.log = nil
	t0 := time.Now()
	log, err := wal.Open(j.path, j.key, wal.Options{})
	if err != nil {
		return 0, fmt.Errorf("reopening journal: %w", err)
	}
	defer log.Close()
	fresh, err := core.Open(core.Config{})
	if err != nil {
		return 0, err
	}
	if err := fresh.Recover(log); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	t, err := fresh.Table("kv")
	if err != nil {
		return recoverS, err
	}
	got, err := t.Flat().Rows()
	if err != nil {
		return recoverS, err
	}
	if len(got) != len(want) {
		return recoverS, fmt.Errorf("recovered %d rows, acknowledged state has %d", len(got), len(want))
	}
	for _, r := range got {
		if p, ok := want[r[0].AsInt()]; !ok || p != r[1].AsString() {
			return recoverS, fmt.Errorf("recovered row %v, acknowledged payload %q (present %v)", r, p, ok)
		}
	}
	return recoverS, nil
}

// ---- bdb_scan ----------------------------------------------------------------

var bdbSQL = map[string]string{
	"q1": "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 1000",
	"q2": "SELECT SUBSTR(sourceIP, 1, 8), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 8)",
	"q3": "SELECT sourceIP, SUM(adRevenue), AVG(pageRank) FROM rankings JOIN uservisits ON pageURL = destURL " +
		"WHERE visitDate >= '" + bdb.Q3DateLo + "' AND visitDate <= '" + bdb.Q3DateHi + "' GROUP BY sourceIP",
}

func bdbWorkload(cfg config) *workload {
	gen := bdb.Scaled(0.05*cfg.scale, cfg.seed)
	rankings := &baseline.PlainTable{Schema: bdb.RankingsSchema(), Rows: gen.GenRankings()}
	visits := &baseline.PlainTable{Schema: bdb.UserVisitsSchema(), Rows: gen.GenUserVisits()}

	// Expected answers from the non-secure reference, computed once.
	q1Count, q1Sum := 0, uint64(0)
	for _, r := range rankings.Select(bdb.Q1Pred) {
		q1Count++
		q1Sum += rowHash(r[0].AsString(), r[1].AsInt())
	}
	q2 := visits.GroupSum(table.All, func(r table.Row) string { return bdb.Q2GroupKey(r).AsString() }, 3)
	windowed := &baseline.PlainTable{Schema: visits.Schema, Rows: visits.Select(bdb.Q3DatePred)}
	type agg struct{ rev, rank, n float64 }
	q3 := map[string]*agg{}
	for _, r := range baseline.HashJoin(rankings, windowed, 0, 1) {
		a := q3[r[3].AsString()]
		if a == nil {
			a = &agg{}
			q3[r[3].AsString()] = a
		}
		a.rev += r[6].AsFloat()
		a.rank += r[1].AsFloat()
		a.n++
	}
	checks := map[string]func(*wire.Result) error{
		"q1": func(r *wire.Result) error {
			sum := uint64(0)
			for _, row := range r.Rows {
				sum += rowHash(row[0].AsString(), row[1].AsInt())
			}
			if len(r.Rows) != q1Count || sum != q1Sum {
				return fmt.Errorf("q1: %d rows checksum %x, want %d rows checksum %x", len(r.Rows), sum, q1Count, q1Sum)
			}
			return nil
		},
		"q2": func(r *wire.Result) error {
			if len(r.Rows) != len(q2) {
				return fmt.Errorf("q2: %d groups, want %d", len(r.Rows), len(q2))
			}
			for _, row := range r.Rows {
				if want, ok := q2[row[0].AsString()]; !ok || !near(row[1].AsFloat(), want) {
					return fmt.Errorf("q2: group %q sum %v, want %v", row[0].AsString(), row[1], want)
				}
			}
			return nil
		},
		"q3": func(r *wire.Result) error {
			if len(r.Rows) != len(q3) {
				return fmt.Errorf("q3: %d groups, want %d", len(r.Rows), len(q3))
			}
			for _, row := range r.Rows {
				a := q3[row[0].AsString()]
				if a == nil || !near(row[1].AsFloat(), a.rev) || !near(row[2].AsFloat(), a.rank/a.n) {
					return fmt.Errorf("q3: group %v, want %+v", row, a)
				}
			}
			return nil
		},
	}

	w := &workload{name: "bdb_scan"}
	w.setup = func(manual bool) (*env, error) {
		// 1 MiB of oblivious memory: the two tables are 2-4x the enclave
		// budget, as they are at paper scale with the paper's 20 MB.
		e, err := serve(core.Config{Seed: cfg.seed, ObliviousMemory: 1 << 20}, nil, manual)
		if err != nil {
			return nil, err
		}
		e.table = "uservisits"
		for _, t := range []*baseline.PlainTable{rankings, visits} {
			name := "rankings"
			if t == visits {
				name = "uservisits"
			}
			_, err = e.db.CreateTable(name, t.Schema, core.TableOptions{Kind: core.KindFlat, Capacity: len(t.Rows) + 8})
			if err == nil {
				err = e.db.BulkLoad(name, t.Rows)
			}
			if err != nil {
				e.close()
				return nil, err
			}
		}
		return e, nil
	}
	w.stream = func(worker, nworkers int) stream { return &bdbStream{i: worker, checks: checks} }
	w.finish = func(e *env, _ []stream) (int, []error, float64) {
		fails := checkCount(e.db, "rankings", int64(len(rankings.Rows)))
		return 2, append(fails, checkCount(e.db, "uservisits", int64(len(visits.Rows)))...), 0
	}
	return w
}

// bdbStream issues Q1, Q2, Q3 round-robin; workers start at different
// queries so the mix in flight is even.
type bdbStream struct {
	i      int
	checks map[string]func(*wire.Result) error
}

func (s *bdbStream) next() statement {
	kind := []string{"q1", "q2", "q3"}[s.i%3]
	s.i++
	return statement{kind: kind, sql: bdbSQL[kind], check: s.checks[kind]}
}

// rowHash makes the order-independent checksum of Q1's result: the sum of
// one hash per row.
func rowHash(url string, rank int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(url))
	return h.Sum64() ^ uint64(rank)*0x9E3779B97F4A7C15
}

// near compares two float aggregates; the engine and the reference sum
// in different orders.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }

// ---- served_small ------------------------------------------------------------

const tinyRows = 64

func smallWorkload(cfg config) *workload {
	rows := make([]table.Row, tinyRows)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Str(payload(int64(i), 0))}
	}
	w := &workload{name: "served_small"}
	w.setup = func(manual bool) (*env, error) {
		e, err := serve(core.Config{Seed: cfg.seed}, nil, manual)
		if err != nil {
			return nil, err
		}
		e.table = "tiny"
		_, err = e.db.CreateTable("tiny", kvSchema(), core.TableOptions{Kind: core.KindFlat, Capacity: tinyRows})
		if err == nil {
			err = e.db.BulkLoad("tiny", rows)
		}
		if err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}
	w.stream = func(worker, _ int) stream {
		return &smallStream{rng: rand.New(rand.NewPCG(cfg.seed, uint64(worker)+1))}
	}
	w.finish = func(e *env, _ []stream) (int, []error, float64) {
		return 1, checkCount(e.db, "tiny", tinyRows), 0
	}
	return w
}

// smallStream draws keys from twice the table's key range, so half the
// statements match one row and half match none.
type smallStream struct {
	rng *rand.Rand
	ver int
}

func (s *smallStream) next() statement {
	k := s.rng.Int64N(2 * tinyRows)
	hit := int64(0)
	if k < tinyRows {
		hit = 1
	}
	if s.rng.IntN(100) < 75 {
		return statement{kind: "count", sql: "SELECT COUNT(*) FROM tiny WHERE k = ?",
			args: []any{k}, check: oneCount(hit)}
	}
	s.ver++
	return statement{kind: "update", sql: "UPDATE tiny SET payload = ? WHERE k = ?",
		args: []any{payload(k, s.ver), k}, check: affected(hit)}
}
