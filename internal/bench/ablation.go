package bench

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"oblidb/internal/core"
	"oblidb/internal/crypt"
	"oblidb/internal/enclave"
	"oblidb/internal/exec"
	"oblidb/internal/indexed"
	"oblidb/internal/oram"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
	"oblidb/internal/workload"
)

// RunAblations measures the design choices DESIGN.md calls out, each
// against its alternative:
//
//   - recursive vs nonrecursive ORAM position maps (Appendix B's "at an
//     approximately 2× performance overhead"),
//   - the Opaque join's in-enclave chunk sorting vs the pure bitonic
//     network vs the randomized shellsort the paper cites,
//   - the constant-time flat insert vs the oblivious scanning insert
//     (§3.1),
//   - bottom-up index bulk loading vs padded incremental inserts,
//   - the write-ahead log's §3 claim that journaling adds only an append
//     per mutation.
func RunAblations(o Options) error {
	o.printf("Ablations: design choices, measured against their alternatives\n")
	if err := ablationORAM(o); err != nil {
		return err
	}
	if err := ablationSort(o); err != nil {
		return err
	}
	if err := ablationInsert(o); err != nil {
		return err
	}
	if err := ablationBulkLoad(o); err != nil {
		return err
	}
	return ablationWAL(o)
}

func ablationORAM(o Options) error {
	n := o.n(50000)
	ops := max(50, o.n(2000))
	tp := newTable("ORAM variant", "per-op", "bandwidth/op", "oblivious bytes")
	variants := []struct {
		name string
		// plainBlockBytes is the untrusted unit each traced access moves:
		// a Z-slot bucket for Path ORAM, a single slot for Ring ORAM.
		plainBlockBytes int
		mk              func(e *enclave.Enclave) (oram.Scheme, error)
	}{
		{"Path, plain map", oram.Z * (8 + 64), func(e *enclave.Enclave) (oram.Scheme, error) {
			return oram.New(e, "abl", n, 64, oram.Options{})
		}},
		{"Path, recursive map (App. B)", oram.Z * (8 + 64), func(e *enclave.Enclave) (oram.Scheme, error) {
			return oram.New(e, "abl", n, 64, oram.Options{Recursive: true})
		}},
		{"Ring ORAM (§8)", 64, func(e *enclave.Enclave) (oram.Scheme, error) {
			return oram.NewRing(e, "abl", n, 64, oram.Options{})
		}},
	}
	for _, v := range variants {
		tr := trace.New()
		tr.EnableCounts()
		tr.Disable()
		e := enclave.MustNew(enclave.Config{Seed: o.seed(), Tracer: tr})
		free := e.Available()
		om, err := v.mk(e)
		if err != nil {
			return err
		}
		charged := free - e.Available()
		rng := rand.New(rand.NewPCG(o.seed(), 3))
		buf := make([]byte, 64)
		before := tr.TotalCount()
		d, err := timedN(ops, func() error {
			_, err := om.Access(oram.OpWrite, rng.IntN(n), buf)
			return err
		})
		if err != nil {
			return err
		}
		bytesPerOp := int(tr.TotalCount()-before) * v.plainBlockBytes / ops
		tp.addf(v.name, d, fmt.Sprintf("%d B", bytesPerOp), charged)
		om.Close()
	}
	tp.render(o.Out)
	o.printf("  (%d-block ORAM, 64 B blocks; paper: recursive map ~2× slower per op,\n", n)
	o.printf("   Ring ORAM ~1.5× less bandwidth — its wall-clock advantage needs transfer\n")
	o.printf("   costs to dominate, which a RAM-backed simulation does not exhibit)\n\n")
	return nil
}

func ablationSort(o Options) error {
	n := exec.NextPow2(o.n(160000))
	tp := newTable("Sort", "time", "notes")
	build := func(e *enclave.Enclave) (*enclaveStoreWrap, error) {
		st, err := e.NewStore("abl.sort", n, 16)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewPCG(o.seed(), 7))
		buf := make([]byte, 16)
		for i := 0; i < n; i++ {
			for j := range buf {
				buf[j] = byte(rng.Uint32())
			}
			if err := st.Write(i, buf); err != nil {
				return nil, err
			}
		}
		return &enclaveStoreWrap{st}, nil
	}
	less := func(a, b []byte) bool {
		for i := 0; i < 16; i++ {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	runs := []struct {
		name, notes string
		sort        func(*enclave.Enclave, *enclaveStoreWrap) error
	}{
		{"bitonic, chunked", "Opaque join's accelerated sort", func(e *enclave.Enclave, w *enclaveStoreWrap) error {
			chunk := exec.NextPow2(max(2, n/16)) / 2
			return exec.ObliviousSort(w.st, n, chunk, less)
		}},
		{"bitonic, pure", "the 0-OM join's network", func(e *enclave.Enclave, w *enclaveStoreWrap) error {
			return exec.ObliviousSort(w.st, n, 1, less)
		}},
		{"randomized shellsort", "O(n log n), probabilistic (§4.3)", func(e *enclave.Enclave, w *enclaveStoreWrap) error {
			return exec.ShellSort(w.st, n, rand.New(rand.NewPCG(o.seed(), 9)), less)
		}},
	}
	for _, r := range runs {
		e := enclave.MustNew(enclave.Config{Seed: o.seed()})
		w, err := build(e)
		if err != nil {
			return err
		}
		d, err := timed(func() error { return r.sort(e, w) })
		if err != nil {
			return fmt.Errorf("ablation %s: %w", r.name, err)
		}
		tp.addf(r.name, d, r.notes)
	}
	tp.render(o.Out)
	o.printf("  (%d elements)\n\n", n)
	return nil
}

type enclaveStoreWrap struct{ st *enclave.Store }

func ablationInsert(o Options) error {
	n := o.n(100000)
	e := enclave.MustNew(enclave.Config{Seed: o.seed()})
	s := workload.Schema()
	fast, err := storage.NewFlat(e, "abl.fast", s, n)
	if err != nil {
		return err
	}
	obliv, err := storage.NewFlat(e, "abl.obliv", s, n)
	if err != nil {
		return err
	}
	for i := 0; i < n/2; i++ {
		if err := fast.InsertFast(workload.NewRow(int64(i)), nil); err != nil {
			return err
		}
		if err := obliv.InsertFast(workload.NewRow(int64(i)), nil); err != nil {
			return err
		}
	}
	reps := 10
	dFast, err := timedN(reps, func() error { return fast.InsertFast(workload.NewRow(0), nil) })
	if err != nil {
		return err
	}
	dObliv, err := timedN(reps, func() error { return obliv.Insert(workload.NewRow(0)) })
	if err != nil {
		return err
	}
	tp := newTable("Flat insert", "per-op", "paper")
	tp.addf("constant-time append", dFast, "O(1)")
	tp.addf("oblivious scan", dObliv, "O(N)")
	tp.render(o.Out)
	o.printf("  (half-full %d-row table; the append leaks only the insert count, §3.1)\n\n", n)
	return nil
}

func ablationBulkLoad(o Options) error {
	n := o.n(30000)
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = workload.NewRow(int64(i))
	}
	mk := func() (*indexed.Table, error) {
		e := enclave.MustNew(enclave.Config{Seed: o.seed()})
		return indexed.New(e, "abl.idx", workload.Schema(), 0, n+4, indexed.Options{RowsPerBlock: 1})
	}
	t1, err := mk()
	if err != nil {
		return err
	}
	dBulk, err := timed(func() error { return t1.BulkLoad(rows) })
	if err != nil {
		return err
	}
	t1.Close()
	t2, err := mk()
	if err != nil {
		return err
	}
	dInc, err := timed(func() error {
		for _, r := range rows {
			if err := t2.Insert(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t2.Close()
	tp := newTable("Index load", "total", "per row")
	tp.addf("bulk (bottom-up)", dBulk, time.Duration(int64(dBulk)/int64(n)))
	tp.addf("incremental (padded inserts)", dInc, time.Duration(int64(dInc)/int64(n)))
	tp.render(o.Out)
	o.printf("  (%d rows; incremental pays worst-case padding per insert, §3.2)\n\n", n)
	return nil
}

func ablationWAL(o Options) error {
	n := max(100, o.n(2000))
	run := func(journal bool) (time.Duration, error) {
		db := core.MustOpen(core.Config{Seed: o.seed()})
		if journal {
			dir, err := os.MkdirTemp("", "oblidb-abl-wal")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			l, err := wal.Open(filepath.Join(dir, "abl.wal"), crypt.NewRandomKey(), wal.Options{})
			if err != nil {
				return 0, err
			}
			defer l.Close()
			if err := db.AttachWAL(l); err != nil {
				return 0, err
			}
		}
		if _, err := db.CreateTable("t", workload.Schema(), core.TableOptions{Capacity: n + 8}); err != nil {
			return 0, err
		}
		return timed(func() error {
			for i := 0; i < n; i++ {
				if err := db.Insert("t", workload.NewRow(int64(i))); err != nil {
					return err
				}
			}
			return nil
		})
	}
	plain, err := run(false)
	if err != nil {
		return err
	}
	logged, err := run(true)
	if err != nil {
		return err
	}
	tp := newTable("Inserts", "total", "vs plain")
	tp.addf("without journal", plain, "—")
	tp.addf("with write-ahead log", logged, ratio(logged, plain))
	tp.render(o.Out)
	o.printf("  (%d inserts; §3: the log adds one sealed append per mutation)\n\n", n)
	return nil
}
