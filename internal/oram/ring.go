package oram

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"oblidb/internal/enclave"
)

// Ring implements Ring ORAM (Ren et al., USENIX Security'15), the scheme
// §8 names as a drop-in upgrade: "using a newer scheme such as Ring ORAM
// would result in performance improvements corresponding to the
// approximately 1.5× improvement of Ring ORAM over Path ORAM".
//
// Where Path ORAM moves every bucket's full contents on every access,
// Ring ORAM reads exactly one slot per bucket on the accessed path — the
// wanted block where it lives, a fresh dummy elsewhere — and defers bulk
// data movement to (a) one scheduled eviction every EvictRate accesses,
// along deterministic reverse-lexicographic paths, and (b) early
// reshuffles of buckets that exhaust their dummies. Per-slot addressing
// is modeled by giving every slot its own untrusted block, so the
// adversary's view has the scheme's true granularity.
//
// Client metadata (slot assignments, dummy counters) and the position
// map live in the enclave, charged to the oblivious-memory budget; the
// original scheme keeps the metadata in encrypted bucket headers
// instead, which changes constants but not access patterns.
//
// The top levels of the tree are on every path, so they sit in enclave
// memory too: a tree-top cache of plaintext slots, also charged to the
// budget. The slot choices, the stash and every random draw are the
// same as without it; the host's trace is the uncached trace with the
// cached slots' events removed.
type Ring struct {
	tree
	pos       *plainMap
	meta      []bucketMeta
	reserved  int
	accesses  int    // since the last scheduled eviction
	evictG    int    // reverse-lexicographic eviction counter
	topLevels int    // bucket levels held in the tree-top cache
	cached    int    // slot indices below this live in cache, not store
	cache     []byte // plaintext tree-top slots, blockSize bytes each

	// Reusable scratch: the access hot path allocates nothing in steady
	// state (pinned by the indexed point-lookup AllocsPerRun test).
	zeroBuf   []byte         // dummy-slot payload
	candBuf   []evictCand    // stash blocks by deepest eviction level
	chosenBuf []uint32       // unplaced eviction candidates
	permBuf   [RingSlots]int // in-place slot permutation
	slotAtBuf [RingSlots]uint32

	before func(id int, data []byte) // see Track
	pend   pendingRead               // see finishRead
}

// pendingRead is a path read cut short by a store fault (see finishRead).
type pendingRead struct {
	on               bool
	id, leaf, toLeaf uint32 // the block, the path read, the block's new leaf
	level, slot      int    // the next level; a slot whose read faulted, or -1
}

// Ring ORAM parameters: Z real slots and S dummy slots per bucket, with a
// scheduled eviction every EvictRate accesses. Stash stability needs
// EvictRate ≤ Z — each eviction must be able to place at least one
// inter-eviction window's worth of blocks into the root bucket alone, or
// the stash grows with the table instead of staying O(log N). Z = 8,
// A = 8 is the Ring ORAM paper's stable configuration at this rate; with
// 16 slots per bucket it leaves S = 8 dummies, so early reshuffles stay
// rare and the amortized access count is unchanged from Z = 4.
const (
	RingZ         = 8
	RingS         = 8
	RingSlots     = RingZ + RingS
	RingEvictRate = 8
)

// bucketMeta is the enclave-side state of one bucket.
type bucketMeta struct {
	// ids[s] is blockID+1 of the real block in slot s, or 0.
	ids [RingSlots]uint32
	// leaf[s] is the assigned leaf of the block in slot s.
	leaf [RingSlots]uint32
	// used[s] marks slots consumed (read) since the last rewrite.
	used [RingSlots]bool
}

// NewRing creates a Ring ORAM with the same sizing rules as New. The
// tree-top cache holds the largest k ≤ levels/2 bucket levels whose
// slots fit in a sixteenth of the enclave's oblivious-memory budget — a
// public function of configuration. Budget, not Available, so that a
// table re-created at recovery gets the same k, and with it the same
// price and plan.
func NewRing(e *enclave.Enclave, name string, capacity, blockSize int, opts Options) (*Ring, error) {
	_, levels := treeGeometry(capacity)
	k := 0
	for k < levels/2 && ((2<<k)-1)*RingSlots*blockSize <= e.Budget()/16 {
		k++
	}
	return newRing(e, name, capacity, blockSize, opts, k)
}

// newRing is NewRing with the tree-top cache depth given: k = 0 is the
// uncached scheme.
func newRing(e *enclave.Enclave, name string, capacity, blockSize int, opts Options, k int) (*Ring, error) {
	if opts.Recursive {
		return nil, fmt.Errorf("oram: ring %q keeps its position map in the enclave", name)
	}
	if _, levels := treeGeometry(capacity); k < 0 || k > levels {
		return nil, fmt.Errorf("oram: tree-top cache of %d levels in a %d-level ring", k, levels)
	}
	// The store keeps every slot, cached ones included (sealed once here
	// and never touched again), so slot indices mean the same with and
	// without the cache.
	t, err := newTree(e, name, capacity, blockSize, RingSlots, blockSize, opts)
	if err != nil {
		return nil, err
	}
	numBuckets := 2*t.leaves - 1
	cached := ((1 << k) - 1) * RingSlots
	r := &Ring{
		tree:      t,
		meta:      make([]bucketMeta, numBuckets),
		topLevels: k,
		cached:    cached,
		cache:     make([]byte, cached*blockSize),
		zeroBuf:   make([]byte, blockSize),
	}
	// Enclave metadata: ~9 bytes per slot, charged like the position map,
	// plus the tree-top cache's plaintext slots.
	r.reserved = numBuckets*RingSlots*9 + len(r.cache)
	if err := e.Reserve(r.reserved); err != nil {
		return nil, err
	}
	if r.pos, err = newPlainMap(e, capacity, t.leaves, t.rng); err != nil {
		e.Release(r.reserved)
		return nil, err
	}
	return r, nil
}

// Close releases oblivious-memory reservations, the tree-top cache's
// included.
func (r *Ring) Close() {
	r.pos.release()
	if r.reserved > 0 {
		r.enc.Release(r.reserved)
		r.reserved = 0
	}
}

// AccessesPerOp returns the amortized untrusted block accesses per
// logical operation: one slot read per uncached path bucket, plus the
// scheduled eviction's read+rewrite of every uncached slot on one path,
// amortized over EvictRate accesses. This is the public cost the planner
// prices indexed access with.
func (r *Ring) AccessesPerOp() int {
	u := r.levels - r.topLevels
	return u + (2*u*RingSlots+RingEvictRate-1)/RingEvictRate
}

// readSlot reads slot i into dst's capacity: from the tree-top cache by
// copy, or from the sealed store.
func (r *Ring) readSlot(i int, dst []byte) ([]byte, error) {
	if i >= r.cached {
		return r.store.ReadInto(i, dst)
	}
	return resultInto(dst, r.cache[i*r.blockSize:], r.blockSize), nil
}

// writeSlot writes one block's payload to slot i: into the tree-top
// cache by copy, or sealed into the store.
func (r *Ring) writeSlot(i int, p []byte) error {
	if i >= r.cached {
		return r.store.Write(i, p)
	}
	copy(r.cache[i*r.blockSize:(i+1)*r.blockSize], p)
	return nil
}

// Track hands fn each block's contents just before an access changes it.
func (r *Ring) Track(fn func(id int, data []byte)) { r.before = fn }

// Reset empties the ORAM without touching untrusted memory. Slots keep
// stale contents as dummies, and their read marks.
func (r *Ring) Reset() {
	for i := range r.meta {
		r.meta[i].ids = [RingSlots]uint32{}
	}
	clear(r.stash)
	r.pend.on = false
}

// BulkStage registers a block for a bulk build without touching the
// untrusted store: the block draws its random leaf and waits in the
// stash until BulkCommit places it. Only valid on a fresh or Reset ORAM
// — staging over live buckets would leave stale copies.
func (r *Ring) BulkStage(id int, data []byte) error {
	if id < 0 || id >= r.capacity {
		return fmt.Errorf("oram: ring block id %d out of range [0,%d)", id, r.capacity)
	}
	if len(data) != r.blockSize {
		return fmt.Errorf("oram: ring bulk write of %d bytes, block size %d", len(data), r.blockSize)
	}
	leaf := uint32(r.rng.IntN(r.leaves))
	r.pos.leaves[id] = leaf
	entry := r.stashed(uint32(id))
	entry.leaf = leaf
	copy(entry.data, data)
	r.stash[uint32(id)] = entry
	return nil
}

// BulkCommit drains the staged stash into the tree bottom-up: each block
// lands in the deepest non-full bucket on its leaf's path, and every
// bucket that receives blocks is written exactly once. Compared to
// replaying the blocks through Access, this leaves the stash empty
// instead of flooded — per-access eviction drains at most Z blocks per
// path, so a bulk load's inflow otherwise outruns it and the residue
// taxes every later eviction. The pattern is public: which buckets are
// written is a function of the PRNG leaf assignment and the staged id
// set, never of block contents.
func (r *Ring) BulkCommit() error {
	type leafID struct{ leaf, id uint32 }
	ents := make([]leafID, 0, len(r.stash))
	for id, e := range r.stash {
		ents = append(ents, leafID{e.leaf, id})
	}
	// Map iteration order is random; sort for a deterministic build.
	slices.SortFunc(ents, func(a, b leafID) int {
		if a.leaf != b.leaf {
			return int(a.leaf) - int(b.leaf)
		}
		return int(a.id) - int(b.id)
	})
	// place fills the bucket at (level, leafLo) from the deepest level up,
	// returning the ids its subtree could not hold.
	var place func(level, leafLo, width int, seg []leafID) ([]uint32, error)
	place = func(level, leafLo, width int, seg []leafID) ([]uint32, error) {
		var pool []uint32
		if level == r.levels-1 {
			for _, e := range seg {
				pool = append(pool, e.id)
			}
		} else {
			half := width / 2
			mid := 0
			for mid < len(seg) && int(seg[mid].leaf) < leafLo+half {
				mid++
			}
			left, err := place(level+1, leafLo, half, seg[:mid])
			if err != nil {
				return nil, err
			}
			right, err := place(level+1, leafLo+half, half, seg[mid:])
			if err != nil {
				return nil, err
			}
			pool = append(left, right...)
			slices.Sort(pool)
		}
		if len(pool) == 0 {
			return nil, nil
		}
		chosen := pool
		if len(chosen) > RingZ {
			chosen = chosen[:RingZ]
		}
		if err := r.writeBucket(r.bucketAtLevel(leafLo, level), chosen); err != nil {
			return nil, err
		}
		return pool[len(chosen):], nil
	}
	// Leftover spill past the root stays in the stash, like any other
	// overflow, and drains through scheduled evictions.
	if _, err := place(0, 0, r.leaves, ents); err != nil {
		return err
	}
	// Staging inflated the stash map's capacity to the staged count, and
	// Go maps never shrink — but evictPath iterates the stash on every
	// scheduled eviction, so rebuild it at its (near-empty) final size.
	// Ditto the recycled-buffer list, which now holds one buffer per
	// placed block.
	fresh := make(map[uint32]stashEntry, len(r.stash)+16)
	for id, e := range r.stash {
		fresh[id] = e
	}
	r.stash = fresh
	if len(r.free) > 2*RingSlots {
		r.free = append([][]byte(nil), r.free[:2*RingSlots]...)
	}
	return nil
}

// Access performs one logical operation: one slot read per path bucket,
// plus the amortized scheduled eviction.
func (r *Ring) Access(op Op, id int, data []byte) ([]byte, error) {
	return r.access(op, id, data, nil, nil)
}

// AccessInto is Access returning the contents in dst's capacity: when dst
// can hold one block nothing is allocated for the result.
func (r *Ring) AccessInto(op Op, id int, data, dst []byte) ([]byte, error) {
	return r.access(op, id, data, nil, dst)
}

// Update reads, transforms, and rewrites a block in one operation.
func (r *Ring) Update(id int, fn func([]byte) []byte) ([]byte, error) {
	return r.access(OpRead, id, nil, fn, nil)
}

// UpdateInto is Update returning the result in dst's capacity.
func (r *Ring) UpdateInto(id int, dst []byte, fn func([]byte) []byte) ([]byte, error) {
	return r.access(OpRead, id, nil, fn, dst)
}

// DummyAccess reads a random block. The result lands in an internal
// scratch buffer so padded operations (indexed lookups that pad to
// worst-case counts) stay allocation-free.
func (r *Ring) DummyAccess() error {
	var err error
	r.dummyBuf, err = r.AccessInto(OpRead, r.rng.IntN(r.capacity), nil, r.dummyBuf)
	return err
}

func (r *Ring) access(op Op, id int, data []byte, fn func([]byte) []byte, dst []byte) ([]byte, error) {
	if id < 0 || id >= r.capacity {
		return nil, fmt.Errorf("oram: ring block id %d out of range [0,%d)", id, r.capacity)
	}
	if op == OpWrite && len(data) != r.blockSize {
		return nil, fmt.Errorf("oram: ring write of %d bytes, block size %d", len(data), r.blockSize)
	}
	if err := r.finishRead(); err != nil {
		return nil, err
	}
	newLeaf := uint32(r.rng.IntN(r.leaves))
	oldLeaf := r.pos.leaves[id]
	r.pos.leaves[id] = newLeaf
	r.pend = pendingRead{on: true, id: uint32(id), leaf: oldLeaf, toLeaf: newLeaf, slot: -1}
	if err := r.finishRead(); err != nil {
		return nil, err
	}

	entry := r.stashed(uint32(id))
	entry.leaf = newLeaf
	if r.before != nil && (fn != nil || op == OpWrite) {
		r.before(id, entry.data)
	}
	switch {
	case fn != nil:
		entry.data = fn(entry.data)
		if len(entry.data) != r.blockSize {
			return nil, fmt.Errorf("oram: ring update fn returned %d bytes, block size %d", len(entry.data), r.blockSize)
		}
	case op == OpWrite:
		copy(entry.data, data)
	}
	r.stash[uint32(id)] = entry
	result := resultInto(dst, entry.data, r.blockSize)

	// Scheduled eviction along the reverse-lexicographic path order.
	r.accesses++
	if r.accesses >= RingEvictRate {
		r.accesses = 0
		g := r.evictG
		r.evictG = (r.evictG + 1) % r.leaves
		if err := r.evictPath(bits.Reverse32(uint32(g)) >> (32 - (r.levels - 1)) % uint32(r.leaves)); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// finishRead completes the pending path read, from the slot whose read
// faulted on; then the block takes the leaf its access drew.
func (r *Ring) finishRead() error {
	p := &r.pend
	if !p.on {
		return nil
	}
	for path := r.pathBuckets(int(p.leaf)); p.level < len(path); p.level++ {
		if err := r.readOneSlot(path[p.level], p.id, &p.slot); err != nil {
			return err
		}
	}
	if e, ok := r.stash[p.id]; ok {
		e.leaf = p.toLeaf
		r.stash[p.id] = e
	}
	p.on = false
	return nil
}

// readOneSlot reads exactly one slot of the bucket: the slot holding
// block id if present, otherwise a uniformly random unused slot,
// reshuffling the bucket first if every slot is consumed. Any real block
// the read exposes is invalidated into the stash, so no slot is ever read
// twice between rewrites; combined with random slot placement at rewrite
// time, the read position is uniform whatever the data — Ring ORAM's
// one-block-per-bucket guarantee. A faulted read of *slot is retried.
func (r *Ring) readOneSlot(bucket int, id uint32, slot *int) error {
	m := &r.meta[bucket]
	target := *slot
	for s := 0; target < 0 && s < RingSlots; s++ {
		if m.ids[s] == id+1 {
			target = s // invariant: real-block slots are never 'used'
			break
		}
	}
	if target < 0 {
		var unused [RingSlots]int
		n := 0
		for s := 0; s < RingSlots; s++ {
			if !m.used[s] {
				unused[n] = s
				n++
			}
		}
		if n > 0 {
			target = unused[r.rng.IntN(n)]
		}
	}
	if target < 0 {
		// Every slot consumed: early reshuffle, then read a fresh slot.
		if err := r.rewriteBucket(bucket); err != nil {
			return err
		}
		target = r.rng.IntN(RingSlots)
	}
	*slot = target
	data, err := r.readSlot(bucket*RingSlots+target, r.readBuf)
	if err != nil {
		return err
	}
	*slot = -1
	r.readBuf = data
	if m.ids[target] != 0 {
		r.stashBlock(m.ids[target]-1, m.leaf[target], data)
		m.ids[target] = 0
	}
	m.used[target] = true
	return nil
}

// rewriteBucket is Ring ORAM's early reshuffle: pull the bucket's live
// blocks into the stash and rewrite all its slots fresh.
func (r *Ring) rewriteBucket(bucket int) error {
	if err := r.pullBucketIntoStash(bucket); err != nil {
		return err
	}
	return r.writeBucket(bucket, nil)
}

// writeBucket fills a bucket from the chosen stash ids (may be nil) and
// fresh dummies, writing every slot. Real blocks land in uniformly random
// slots — the (simulated) permutation that makes read positions carry no
// information.
func (r *Ring) writeBucket(bucket int, chosen []uint32) error {
	m := &r.meta[bucket]
	// In-place Fisher–Yates over the slot indices: the allocation-free
	// equivalent of Rand().Perm(RingSlots).
	perm := &r.permBuf
	for i := range perm {
		perm[i] = i
	}
	for i := RingSlots - 1; i > 0; i-- {
		j := r.rng.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	slotAt := &r.slotAtBuf
	for s := range slotAt {
		slotAt[s] = 0
	}
	for i, id := range chosen {
		slotAt[perm[i]] = id + 1
	}
	// A block leaves the stash only once its slot's write has landed.
	for s, idPlus := range slotAt {
		payload := r.zeroBuf
		var entry stashEntry
		if idPlus != 0 {
			entry = r.stash[idPlus-1]
			payload = entry.data
		}
		if err := r.writeSlot(bucket*RingSlots+s, payload); err != nil {
			return err
		}
		m.ids[s], m.leaf[s], m.used[s] = idPlus, entry.leaf, false
		if idPlus != 0 {
			delete(r.stash, idPlus-1)
			r.free = append(r.free, entry.data)
		}
	}
	return nil
}

// evictCand is a stash block awaiting eviction and the deepest level of
// the evicted path it may occupy.
type evictCand struct {
	depth int
	id    uint32
}

// evictPath performs the scheduled eviction: read every slot on the
// path's buckets, then rewrite them with stash blocks placed as deep as
// their leaves allow — Path ORAM's eviction at Ring ORAM's schedule.
func (r *Ring) evictPath(leaf uint32) error {
	path := r.pathBuckets(int(leaf))
	for _, b := range path {
		if err := r.pullBucketIntoStash(b); err != nil {
			return err
		}
	}
	// One stash scan: a block may sit at any level down to where its
	// leaf's path leaves the evicted one.
	cands := r.candBuf[:0]
	for id, entry := range r.stash {
		cands = append(cands, evictCand{depth: r.levels - 1 - bits.Len32(entry.leaf^leaf), id: id})
	}
	slices.SortFunc(cands, func(a, b evictCand) int {
		if a.depth != b.depth {
			return b.depth - a.depth
		}
		return cmp.Compare(a.id, b.id)
	})
	// Bottom-up, the pool holds every unplaced block that fits the level;
	// each bucket takes the RingZ smallest ids. Choosing by id rather than
	// by map iteration order keeps eviction deterministic: which blocks
	// land in a bucket steers future read-slot positions, so two
	// same-shape instances must evict identically for their physical
	// traces to stay identical.
	r.candBuf = cands
	pool, next := r.chosenBuf[:0], 0
	for level := r.levels - 1; level >= 0; level-- {
		for ; next < len(cands) && cands[next].depth == level; next++ {
			pool = append(pool, cands[next].id)
		}
		slices.Sort(pool)
		n := min(len(pool), RingZ)
		if err := r.writeBucket(path[level], pool[:n]); err != nil {
			return err
		}
		pool = pool[:copy(pool, pool[n:])]
	}
	r.chosenBuf = pool[:0]
	return nil
}

// pullBucketIntoStash reads a bucket's live blocks into the stash
// without rewriting it (the caller's write pass follows).
func (r *Ring) pullBucketIntoStash(bucket int) error {
	m := &r.meta[bucket]
	for s := 0; s < RingSlots; s++ {
		data, err := r.readSlot(bucket*RingSlots+s, r.readBuf)
		if err != nil {
			return err
		}
		r.readBuf = data
		if m.ids[s] == 0 {
			continue
		}
		r.stashBlock(m.ids[s]-1, m.leaf[s], data)
		m.ids[s] = 0
	}
	return nil
}

// RawScan streams all live blocks: stash first, then every slot
// linearly. A block lives either in the stash or in exactly one slot's
// metadata, so each is yielded once. A block read from a slot is valid
// only until fn returns.
func (r *Ring) RawScan(fn func(id int, data []byte) error) error {
	for id, entry := range r.stash {
		if err := fn(int(id), entry.data); err != nil {
			return err
		}
	}
	for b := range r.meta {
		m := &r.meta[b]
		for s := 0; s < RingSlots; s++ {
			data, err := r.readSlot(b*RingSlots+s, r.readBuf)
			if err != nil {
				return err
			}
			r.readBuf = data
			if m.ids[s] == 0 {
				continue
			}
			if err := fn(int(m.ids[s]-1), data); err != nil {
				return err
			}
		}
	}
	return nil
}
