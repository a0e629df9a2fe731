package exec

import (
	"fmt"
	"sort"

	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
)

// AggKind enumerates the aggregates ObliDB supports (§3): COUNT, SUM,
// MIN, MAX, AVG.
type AggKind int

const (
	// AggCount counts matching rows.
	AggCount AggKind = iota
	// AggSum sums a numeric column.
	AggSum
	// AggMin takes the minimum of a column.
	AggMin
	// AggMax takes the maximum of a column.
	AggMax
	// AggAvg averages a numeric column.
	AggAvg
)

// String names the aggregate as its SQL keyword.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// AggSpec is one aggregate over one column (Col is ignored for COUNT).
type AggSpec struct {
	Kind AggKind
	Col  int
}

// aggState accumulates one aggregate inside the enclave.
type aggState struct {
	spec  AggSpec
	count int64
	sum   float64
	min   table.Value
	max   table.Value
	any   bool
}

func (a *aggState) add(r table.Row) error {
	a.count++
	if a.spec.Kind == AggCount {
		return nil
	}
	v := r[a.spec.Col]
	switch a.spec.Kind {
	case AggSum, AggAvg:
		if !v.IsNumeric() {
			return fmt.Errorf("exec: %s over non-numeric column", a.spec.Kind)
		}
		a.sum += v.AsFloat()
	case AggMin, AggMax:
		// Clone retained extrema: v may alias the scan's scratch block
		// (see table.Value.Clone), and the state outlives the row.
		if !a.any {
			a.min, a.max = v.Clone(), v.Clone()
		} else {
			if c, err := table.Compare(v, a.min); err != nil {
				return err
			} else if c < 0 {
				a.min = v.Clone()
			}
			if c, err := table.Compare(v, a.max); err != nil {
				return err
			} else if c > 0 {
				a.max = v.Clone()
			}
		}
	}
	a.any = true
	return nil
}

// merge folds another partial state for the same spec into a. Every
// aggregate ObliDB supports decomposes over a partition of the input —
// COUNT and SUM add, MIN/MAX compare, AVG carries (sum, count) — which
// is what makes partition-parallel aggregation exact, not approximate.
func (a *aggState) merge(b *aggState) error {
	a.count += b.count
	a.sum += b.sum
	if b.any {
		if !a.any {
			a.min, a.max = b.min, b.max
		} else {
			if c, err := table.Compare(b.min, a.min); err != nil {
				return err
			} else if c < 0 {
				a.min = b.min
			}
			if c, err := table.Compare(b.max, a.max); err != nil {
				return err
			} else if c > 0 {
				a.max = b.max
			}
		}
		a.any = true
	}
	return nil
}

func (a *aggState) result() table.Value {
	switch a.spec.Kind {
	case AggCount:
		return table.Int(a.count)
	case AggSum:
		return table.Float(a.sum)
	case AggAvg:
		if a.count == 0 {
			return table.Float(0)
		}
		return table.Float(a.sum / float64(a.count))
	case AggMin:
		if !a.any {
			return table.Int(0)
		}
		return a.min
	case AggMax:
		if !a.any {
			return table.Int(0)
		}
		return a.max
	}
	return table.Int(0)
}

// Aggregate computes aggregates over the rows matching pred in one scan,
// keeping all state inside the enclave (§4.2). With a non-trivial pred
// this is the paper's fused select+aggregate operator: no intermediate
// table exists, so no intermediate size leaks. The trace is one read per
// block; no oblivious memory is used.
func Aggregate(in Input, pred table.Pred, specs []AggSpec) ([]table.Value, error) {
	states, err := aggScan(in, pred, specs)
	if err != nil {
		return nil, err
	}
	return aggResults(states), nil
}

// aggScan is the scan phase of Aggregate: one read per block, all state
// in the enclave. Parallel aggregation runs one aggScan per partition
// and merges the partial states.
func aggScan(in Input, pred table.Pred, specs []AggSpec) ([]aggState, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("exec: no aggregates requested")
	}
	states := make([]aggState, len(specs))
	for i, s := range specs {
		if s.Kind != AggCount && (s.Col < 0 || s.Col >= in.Schema().NumColumns()) {
			return nil, fmt.Errorf("exec: aggregate column %d out of range", s.Col)
		}
		states[i].spec = s
	}
	err := ForEachRow(in, func(_ int, row table.Row, used bool) error {
		if !used || !pred(row) {
			return nil
		}
		for j := range states {
			if err := states[j].add(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return states, nil
}

func aggResults(states []aggState) []table.Value {
	out := make([]table.Value, len(states))
	for i := range states {
		out[i] = states[i].result()
	}
	return out
}

// GroupBy extracts a grouping key from a row, inside the enclave (e.g. a
// column value or SUBSTR of one).
type GroupBy func(table.Row) table.Value

// GroupAggregateOptions configures grouped aggregation.
type GroupAggregateOptions struct {
	// MaxGroups bounds the in-enclave group table. Zero means the input
	// size. If distinct groups exceed it, the operator fails; the engine
	// then falls back to the Opaque-style sort-and-filter (§4.2).
	MaxGroups int
	// PadGroups, when positive, pads the output to exactly this many rows
	// (padding mode pads "to the maximum supported number of groups",
	// §7.2).
	PadGroups int
}

// GroupAggregate computes grouped aggregates with the paper's hash
// bucketing (§4.2): one scan; each row's group is looked up or added in an
// in-enclave hash table charged to oblivious memory at 4 bytes per group.
// Output is one row per group — [group, aggregates...] — in sorted group
// order, so the only leakage is the (already leaked) number of groups.
func GroupAggregate(e *enclave.Enclave, in Input, pred table.Pred, groupBy GroupBy, specs []AggSpec, opts GroupAggregateOptions, outName string) (*storage.Flat, error) {
	if groupBy == nil {
		return nil, fmt.Errorf("exec: grouped aggregation needs a group key")
	}
	maxGroups := opts.MaxGroups
	if maxGroups <= 0 {
		maxGroups = RowSlots(in)
	}
	groups, reserved, err := groupScan(e, in, pred, groupBy, specs, maxGroups)
	defer func() { e.Release(reserved) }()
	if err != nil {
		return nil, err
	}
	return emitGroups(e, groups, specs, in.Schema(), opts, outGeom(in), outName)
}

// group is one grouping bucket's in-enclave state.
type group struct {
	key    table.Value
	states []aggState
}

// groupTable is grouped aggregation's in-enclave hash table: buckets
// keyed by the text of key.String(), charged 4 bytes apiece to e's
// oblivious memory (reserved counts the bytes to release).
type groupTable struct {
	e         *enclave.Enclave
	specs     []AggSpec
	maxGroups int
	groups    map[string]*group
	reserved  int
	// mk is the reused buffer each row's key text renders into: the
	// lookup through string(mk) does not allocate, and the key string is
	// copied only when a group is created. (A map keyed by table.Value
	// would merge -0 with 0 and split NaNs.)
	mk []byte
}

func newGroupTable(e *enclave.Enclave, specs []AggSpec, maxGroups int) *groupTable {
	return &groupTable{e: e, specs: specs, maxGroups: maxGroups, groups: make(map[string]*group)}
}

// add folds one matching row into its group, creating the group on
// first sight.
func (t *groupTable) add(key table.Value, row table.Row) error {
	t.mk = key.AppendLiteral(t.mk[:0])
	g, ok := t.groups[string(t.mk)]
	if !ok {
		if len(t.groups) >= t.maxGroups {
			return fmt.Errorf("exec: more than %d groups; use the sort-based fallback", t.maxGroups)
		}
		// The paper charges 4 bytes of oblivious memory per group.
		if err := t.e.Reserve(4); err != nil {
			return fmt.Errorf("exec: group table exceeded oblivious memory: %w", err)
		}
		t.reserved += 4
		// The key outlives the scanned row; detach it from the scratch.
		g = &group{key: key.Clone(), states: make([]aggState, len(t.specs))}
		for j, s := range t.specs {
			g.states[j].spec = s
		}
		t.groups[string(t.mk)] = g
	}
	for j := range g.states {
		if err := g.states[j].add(row); err != nil {
			return err
		}
	}
	return nil
}

// groupScan is the scan phase of grouped aggregation: one read per
// block, buckets in an in-enclave groupTable. It returns the buckets and
// the bytes reserved; the caller releases them once done with the
// buckets.
func groupScan(e *enclave.Enclave, in Input, pred table.Pred, groupBy GroupBy, specs []AggSpec, maxGroups int) (map[string]*group, int, error) {
	t := newGroupTable(e, specs, maxGroups)
	err := ForEachRow(in, func(_ int, row table.Row, used bool) error {
		if !used || !pred(row) {
			return nil
		}
		return t.add(groupBy(row), row)
	})
	if err != nil {
		return nil, t.reserved, err
	}
	return t.groups, t.reserved, nil
}

// mergeGroups folds src's buckets into dst (both in-enclave).
func mergeGroups(dst, src map[string]*group, specs []AggSpec, maxGroups int) error {
	for mk, g := range src {
		d, ok := dst[mk]
		if !ok {
			if len(dst) >= maxGroups {
				return fmt.Errorf("exec: more than %d groups; use the sort-based fallback", maxGroups)
			}
			dst[mk] = g
			continue
		}
		for j := range d.states {
			if err := d.states[j].merge(&g.states[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitGroups is the output phase of grouped aggregation: one row
// [group, aggregates...] per bucket in sorted key order, padded to
// opts.PadGroups when set. Its trace depends only on the number of
// groups (already-conceded leakage) and the padding bound.
func emitGroups(e *enclave.Enclave, groups map[string]*group, specs []AggSpec, inSchema *table.Schema, opts GroupAggregateOptions, rpb int, outName string) (*storage.Flat, error) {
	// Deterministic output order: sorted by group key.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	groupKind, groupWidth := table.KindInt, 0
	for _, g := range groups {
		groupKind = g.key.Kind
		if groupKind == table.KindString {
			for _, h := range groups {
				if n := len(h.key.AsString()); n > groupWidth {
					groupWidth = n
				}
			}
			groupWidth = max(groupWidth, 16)
		}
		break
	}
	outSchema, err := groupOutputSchema(inSchema, groupKind, groupWidth, specs)
	if err != nil {
		return nil, err
	}
	capacity := max(1, len(groups))
	if opts.PadGroups > capacity {
		capacity = opts.PadGroups
	}
	out, err := storage.NewFlatGeom(e, outName, outSchema, capacity, rpb)
	if err != nil {
		return nil, err
	}
	w := out.NewBlockWriter()
	for _, k := range keys {
		g := groups[k]
		row := make(table.Row, 1+len(specs))
		row[0] = g.key
		for j := range g.states {
			row[1+j] = g.states[j].result()
		}
		if err := w.Append(row, true); err != nil {
			return nil, err
		}
	}
	// Padding mode: dummy-write the remaining slots so the output table
	// has its padded size with indistinguishable contents.
	for i := len(keys); i < capacity; i++ {
		if err := w.Append(nil, false); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.BumpRows(len(keys))
	return out, nil
}

// groupOutputSchema builds the [group, agg...] schema. The group column
// kind is taken from an observed key (INTEGER for an empty input).
func groupOutputSchema(in *table.Schema, groupKind table.Kind, groupWidth int, specs []AggSpec) (*table.Schema, error) {
	cols := make([]table.Column, 1+len(specs))
	cols[0] = table.Column{Name: "group", Kind: groupKind, Width: groupWidth}
	for i, s := range specs {
		name := s.Kind.String()
		kind := table.KindFloat
		if s.Kind == AggCount {
			kind = table.KindInt
		} else {
			name += "_" + in.Col(s.Col).Name
		}
		if s.Kind == AggMin || s.Kind == AggMax {
			c := in.Col(s.Col)
			kind = c.Kind
			cols[1+i] = table.Column{Name: name, Kind: kind, Width: c.Width}
			continue
		}
		cols[1+i] = table.Column{Name: name, Kind: kind}
	}
	return table.NewSchema(cols...)
}
