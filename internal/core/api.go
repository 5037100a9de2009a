// Package core implements the memory-reclamation schemes evaluated in
// "Interval-Based Memory Reclamation" (Wen et al., PPoPP 2018): the paper's
// three IBR algorithms (POIBR, TagIBR with its FAA/WCAS/TPA variants, and
// 2GEIBR) plus the comparison schemes (NoMM, EBR, hazard pointers, hazard
// eras), and two post-paper engines: Hyaline's per-batch reference counting
// (hyaline.go) and a DEBRA+-style neutralization EBR (debra.go). All schemes
// implement the shared API of Fig. 1 of the paper.
//
// A scheme mediates every access to shared pointers (Ptr cells) of a data
// structure whose nodes live in a mem.Pool. Threads are identified by small
// integer ids; a given tid must be used by one goroutine at a time.
//
// # Deviation from the paper's Figs. 5 and 6
//
// The figures publish the upper reservation endpoint *after* loading the
// pointer and then return immediately. Between the load and the publish, a
// concurrent reclaimer can scan the thread's stale (small) interval, miss
// the conflict, and free the block just loaded — the same window hazard
// pointers close by re-reading the pointer after the fence. We therefore
// implement the read protocol the way the authors' artifact does: publish
// the candidate endpoint first, then re-read the pointer, returning only a
// value that was (re)loaded while the covering reservation was already
// visible. The loop is still lock free: it retries only when another thread
// raised born_before / the global epoch, i.e. when some thread made
// progress (Theorem 3's argument is unchanged).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"ibr/internal/epoch"
	"ibr/internal/mem"
	"ibr/internal/obs"
)

// Ptr is a shared mutable pointer cell ("block**" in Fig. 1). Data
// structures embed Ptr for every mutable link (list next, tree children,
// the root) and access it only through a Scheme.
//
// bits holds the mem.Handle (with the application's mark bits, and — under
// TagIBR-WCAS — the packed birth epoch). born is the monotonically
// increasing born_before tag of Fig. 5, used only by the portable and FAA
// TagIBR variants; it is the "doubles the size of pointers" cost the WCAS
// and TPA variants remove.
type Ptr struct {
	born atomic.Uint64
	bits atomic.Uint64
}

// Raw returns the current handle without any protection. It is safe only
// when the caller knows no reclamation can interfere (single-threaded
// setup, tests, NoMM) — exactly like dereferencing without a hazard in C.
func (p *Ptr) Raw() mem.Handle { return mem.Handle(p.bits.Load()) }

// setRaw stores without instrumentation; used by schemes and for
// single-threaded initialization via Scheme implementations.
func (p *Ptr) setRaw(h mem.Handle) { p.bits.Store(uint64(h)) }

// FetchOrMarks atomically ORs mark bits (mem.Mark0Bit/Mark1Bit) into the
// stored word and returns the previous value. Because the target address is
// unchanged, no scheme needs write-side instrumentation for it: TagIBR's
// born_before already covers the target, and WCAS's packed epoch rides
// along untouched. The Natarajan–Mittal tree uses it to flag and tag edges,
// mirroring the bitwise-OR instruction of that paper.
func (p *Ptr) FetchOrMarks(m uint64) mem.Handle {
	return mem.Handle(p.bits.Or(m & (mem.Mark0Bit | mem.Mark1Bit)))
}

// Memory is the allocator surface a Scheme needs: allocation, reclamation,
// and the birth/retire epoch fields of the block header. *mem.Pool[T]
// satisfies it for every T.
type Memory interface {
	Alloc(tid int) (mem.Handle, bool)
	Free(tid int, h mem.Handle)
	FreeBatch(tid int, hs []mem.Handle)
	FreeBatches(tid int, batches ...[]mem.Handle)
	Birth(h mem.Handle) uint64
	SetBirth(h mem.Handle, e uint64)
	RetireEpoch(h mem.Handle) uint64
	SetRetireEpoch(h mem.Handle, e uint64)
	MarkRetired(h mem.Handle)
}

// Scheme is the memory-management API of Fig. 1, extended with the thread
// id and protection-slot plumbing that the paper leaves implicit.
type Scheme interface {
	// Name returns the scheme's registry name, e.g. "tagibr-wcas".
	Name() string

	// StartOp marks the start of a data-structure operation (Fig. 1
	// start_op): the thread publishes its reservation.
	StartOp(tid int)

	// EndOp marks the end of the operation: the reservation is withdrawn
	// and, for pointer-based schemes, all protection slots are cleared.
	EndOp(tid int)

	// RestartOp renews the reservation mid-operation. Data structures call
	// it when they restart from the root after repeated CAS failures; per
	// §4.3.1 this bounds the memory a starving (but not stalled) thread can
	// reserve. The caller must hold no node references across the call.
	RestartOp(tid int)

	// Alloc allocates a block and stamps its birth epoch, advancing the
	// global epoch every EpochFreq allocations (Figs. 4/5 alloc). It
	// returns Nil only if the pool is exhausted even after a forced scan.
	Alloc(tid int) mem.Handle

	// Retire hands a detached block to the reclamation system (Fig. 1
	// retire). The block must already be unreachable from the structure's
	// shared pointers. Every EmptyFreq retirements the thread scans its
	// retire list and frees every block no longer protected.
	Retire(tid int, h mem.Handle)

	// Read performs a protected pointer load (Fig. 1 read). idx names the
	// per-thread protection slot for HP/HE (0 <= idx < Options.Slots);
	// epoch- and interval-based schemes ignore it. The returned handle
	// carries the application mark bits of the stored value.
	Read(tid, idx int, p *Ptr) mem.Handle

	// ReadRoot is Read for a data structure's root pointer. POIBR overrides
	// it with the snapshot read of Fig. 4 (its only protected read); every
	// other scheme treats it as Read.
	ReadRoot(tid, idx int, p *Ptr) mem.Handle

	// Write performs a shared pointer store (Fig. 1 write). TagIBR
	// variants first raise the pointer's born_before tag.
	Write(tid int, p *Ptr, h mem.Handle)

	// CompareAndSwap conditionally updates a shared pointer (Fig. 1 CAS).
	CompareAndSwap(tid int, p *Ptr, old, new mem.Handle) bool

	// Unreserve releases protection slot idx (Fig. 1 unreserve). Only
	// HP and HE need it; it is a no-op elsewhere — the headline usability
	// win of interval-based reclamation.
	Unreserve(tid, idx int)

	// TransferSlot copies the protection in slot from to slot to (both
	// owned by tid). HP/HE use it when a traversal's node roles shift
	// (e.g. the Natarajan–Mittal seek promoting leaf to parent): the node
	// stays continuously protected, so no re-validation is needed. A no-op
	// for every other scheme — more per-read bookkeeping that IBR avoids.
	TransferSlot(tid, from, to int)

	// Drain forces a scan of tid's retire list regardless of EmptyFreq.
	Drain(tid int)

	// Unreclaimed returns the number of blocks tid has retired but not yet
	// reclaimed — the space metric of Fig. 9.
	Unreclaimed(tid int) int

	// Robust reports whether a stalled thread can block only a bounded
	// number of reclamations under this scheme (Fig. 7 summary).
	Robust() bool
}

// Options tunes a scheme; zero values select the paper's settings.
type Options struct {
	// Threads is the number of thread ids. Required.
	Threads int
	// EpochFreq: advance the global epoch every EpochFreq allocations by a
	// thread (paper §5 uses n×k total with k=150, i.e. each thread
	// advances every 150 of its own allocations). Default 150.
	EpochFreq int
	// EmptyFreq: the base scan cadence (paper §5: k=30). Default 30. The
	// scanning schemes drain adaptively: a thread scans when its unreclaimed
	// count reaches a watermark that starts EmptyFreq above the last scan's
	// residue and backs off (doubling, capped at 32×EmptyFreq) while scans
	// are futile — so a backlog pinned by a stalled reservation is not
	// rescanned every EmptyFreq retirements. Hyaline seals batches on the
	// fixed EmptyFreq cadence (its handoff has no yield signal to adapt to).
	EmptyFreq int
	// BucketShift sets the birth-epoch width of a retire-list bucket to
	// 2^BucketShift epochs. 0 selects the default (5, i.e. 32 epochs);
	// negative values select one epoch per bucket (tests).
	BucketShift int
	// Slots is the number of protection slots per thread for HP/HE.
	// Default 8 (enough for every structure here except the Bonsai tree,
	// which pointer-based schemes cannot run; see §5 of the paper).
	Slots int
	// Obs, when non-nil, receives SMR lifecycle hooks (alloc, retire,
	// scan, free ages, epoch advances) for the flight recorder and the
	// reclamation histograms. Nil disables observability: every hook site
	// degrades to one nil check. The observer must be sized for Threads.
	Obs *obs.SchemeObs
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		panic("core: Options.Threads must be positive")
	}
	if o.EpochFreq <= 0 {
		o.EpochFreq = 150
	}
	if o.EmptyFreq <= 0 {
		o.EmptyFreq = 30
	}
	if o.Slots <= 0 {
		o.Slots = 8
	}
	return o
}

// retiredBlock caches the lifetime interval so scans do not touch block
// headers (which may be on remote cache lines).
type retiredBlock struct {
	h             mem.Handle
	birth, retire uint64
}

// RetireSource labels who initiated a retirement. The serving layer tags
// each worker's current source so the scheme can account for garbage by
// cause: ordinary structure operations (user deletes and update-displaced
// nodes) versus TTL expirations, which the engine's expiry wheel drives
// through this same retire path. The split is what lets operators see that
// an unreclaimed backlog is, say, expiry-driven churn rather than a delete
// storm — both compete for the identical scan capacity.
type RetireSource uint8

const (
	// SourceUser: retirement caused by a client-visible structure operation.
	SourceUser RetireSource = iota
	// SourceExpiry: retirement caused by a TTL expiration.
	SourceExpiry
	// NumRetireSources sizes per-source counter arrays.
	NumRetireSources
)

// threadState is per-thread bookkeeping, cache-line padded.
type threadState struct {
	_            [64]byte
	allocCount   uint64
	retireCount  uint64
	sinceAdvance uint64       // retirements since the last epoch advance seen by this tid
	allocFailed  bool         // last Alloc returned Nil for pool exhaustion
	inOp         bool         // inside a StartOp/EndOp bracket (owned by tid's goroutine)
	drainDue     bool         // a retire-triggered scan waits for EndOp (owned by tid's goroutine)
	retireSrc    RetireSource // current retirement cause (owned by tid's goroutine)
	store        retireStore
	drainAt      int                             // adaptive watermark: scan when store.count reaches it
	drainStep    int                             // current watermark step (EmptyFreq, doubling when futile)
	unreclaimed  atomic.Int64                    // store.count, readable by samplers
	scratch      []uint64                        // scan scratch (HP address / HE era snapshot)
	sum          resSummary                      // scan scratch (reservation summary)
	freeScratch  []mem.Handle                    // scan scratch (blocks to free in one batch)
	wholeScratch [][]mem.Handle                  // scan scratch (whole buckets' arrays to free)
	blame        []uint64                        // scan scratch (kept blocks per witness tid, obs only)
	scans        atomic.Uint64                   // retire-list scans executed
	scanned      atomic.Uint64                   // conflict tests run across all scans
	freed        atomic.Uint64                   // blocks reclaimed by scans
	bucketSkips  atomic.Uint64                   // whole buckets kept by one corner test
	bucketFrees  atomic.Uint64                   // whole buckets freed by one corner test
	retiredBy    [NumRetireSources]atomic.Uint64 // retirements by cause
	_            [64]byte
}

// base carries the machinery shared by every scheme: the global clock, the
// reservation table, per-thread retire lists, and the alloc/retire cadence
// of Figs. 2, 4 and 5.
type base struct {
	name        string
	mem         Memory
	clock       *epoch.Clock
	res         *epoch.Table
	opts        Options
	obs         *obs.SchemeObs // nil when observability is off (hooks nil-check)
	bucketShift uint           // log2 epochs per retire bucket
	adaptive    bool           // watermark-driven drains (off: fixed EmptyFreq cadence)
	pressure    *atomic.Bool   // serving layer's soft-watermark drain-pressure flag
	ts          []threadState
}

func newBase(name string, m Memory, o Options) base {
	o = o.withDefaults()
	shift := uint(defaultBucketShift)
	if o.BucketShift > 0 {
		shift = uint(o.BucketShift)
	} else if o.BucketShift < 0 {
		shift = 0
	}
	b := base{
		name:        name,
		mem:         m,
		clock:       epoch.NewClock(),
		res:         epoch.NewTable(o.Threads),
		opts:        o,
		obs:         o.Obs,
		bucketShift: shift,
		adaptive:    true,
		pressure:    new(atomic.Bool),
		ts:          make([]threadState, o.Threads),
	}
	for i := range b.ts {
		b.ts[i].drainAt = o.EmptyFreq
		b.ts[i].drainStep = o.EmptyFreq
	}
	return b
}

func (b *base) Name() string            { return b.name }
func (b *base) Unreclaimed(tid int) int { return int(b.ts[tid].unreclaimed.Load()) }

// TakeAllocFailed reports whether tid's most recent Scheme.Alloc returned
// Nil because the pool was exhausted, clearing the flag. It distinguishes
// "the structure op failed because the key was there" from "the op failed
// because no node could be allocated" — ds operations collapse both into a
// false return, and the serving layer must answer BUSY (overload) for the
// latter, never EXISTS. Like Alloc itself, it may only be called by the
// goroutine owning tid.
func (b *base) TakeAllocFailed(tid int) bool {
	ts := &b.ts[tid]
	f := ts.allocFailed
	ts.allocFailed = false
	return f
}

// AllocFailed invokes TakeAllocFailed on schemes that track exhaustion
// (every registered scheme does, via base).
func AllocFailed(s Scheme, tid int) bool {
	if a, ok := s.(interface{ TakeAllocFailed(int) bool }); ok {
		return a.TakeAllocFailed(tid)
	}
	return false
}
func (b *base) Unreserve(tid, idx int) {}
func (b *base) checkTid(tid int)       { _ = &b.ts[tid] }

// Clock exposes the scheme's epoch clock (tests and diagnostics).
func (b *base) Clock() *epoch.Clock { return b.clock }

// ScanStats aggregates reclamation-scan work across threads. Scanned/Scans
// is the mean number of blocks *examined* per scan: the per-retirement
// overhead that lands on the critical path when no spare cores absorb it
// (see EXPERIMENTS.md on the single-CPU throughput inversion). With the
// summarized scans this can be far below the retire-list length — runs of
// still-protected blocks are skipped wholesale and EBR's scan stops at the
// first unreclaimable block — which is exactly the improvement the counters
// exist to surface. Callers should read it at quiescence.
type ScanStats struct {
	Scans   uint64 // empty() executions
	Scanned uint64 // retired blocks examined (conflict tests actually run)
	Freed   uint64 // blocks reclaimed
	// BucketSkips/BucketFrees count whole-bucket decisions: buckets kept or
	// freed by a single corner test against the reservation summary instead
	// of per-block tests. They measure how much of the backlog the bucketed
	// layout lets a scan not walk. A store-level decision (one test settling
	// every bucket at once) counts each live bucket it covered.
	BucketSkips uint64
	BucketFrees uint64
}

// MeanListLen returns the average number of blocks examined per scan.
// (The name predates the summarized scans, under which examined ≤ list
// length; it is kept for CSV/JSON column stability.)
func (s ScanStats) MeanListLen() float64 {
	if s.Scans == 0 {
		return 0
	}
	return float64(s.Scanned) / float64(s.Scans)
}

// ExaminedPerFreed returns the mean number of blocks examined per block
// reclaimed — the scan efficiency metric of BENCH_scan.json.
func (s ScanStats) ExaminedPerFreed() float64 {
	if s.Freed == 0 {
		return 0
	}
	return float64(s.Scanned) / float64(s.Freed)
}

// ScanStats sums the per-thread scan counters.
func (b *base) ScanStats() ScanStats {
	var out ScanStats
	for i := range b.ts {
		out.Scans += b.ts[i].scans.Load()
		out.Scanned += b.ts[i].scanned.Load()
		out.Freed += b.ts[i].freed.Load()
		out.BucketSkips += b.ts[i].bucketSkips.Load()
		out.BucketFrees += b.ts[i].bucketFrees.Load()
	}
	return out
}

// SetDrainPressure sets or clears the serving layer's drain-pressure flag:
// while set, the adaptive drain ignores its futile-scan backoff and scans
// whenever the unreclaimed count is at least EmptyFreq above the last scan's
// residue. The admission-control remediator raises it when a shard's total
// unreclaimed crosses the soft watermark — global evidence that space, not
// scan cost, is the binding constraint — and clears it below.
func (b *base) SetDrainPressure(on bool) { b.pressure.Store(on) }

// SetDrainPressure invokes the scheme's drain-pressure flag if it has one
// (every registered scheme does, via base).
func SetDrainPressure(s Scheme, on bool) {
	if p, ok := s.(interface{ SetDrainPressure(bool) }); ok {
		p.SetDrainPressure(on)
	}
}

// SetRetireSource tags tid's subsequent retirements with src until changed.
// Like every per-tid mutator it may only be called by the goroutine owning
// tid; the serving worker brackets expiry batches with it.
func (b *base) SetRetireSource(tid int, src RetireSource) {
	if src >= NumRetireSources {
		panic("core: unknown retire source")
	}
	b.ts[tid].retireSrc = src
}

// RetireSources sums the per-thread retirement counters by cause. Safe to
// call concurrently with serving (the counters are atomics).
func (b *base) RetireSources() [NumRetireSources]uint64 {
	var out [NumRetireSources]uint64
	for i := range b.ts {
		for s := range out {
			out[s] += b.ts[i].retiredBy[s].Load()
		}
	}
	return out
}

// SetRetireSource tags tid's subsequent retirements on schemes that account
// by cause (every registered scheme does, via base).
func SetRetireSource(s Scheme, tid int, src RetireSource) {
	if r, ok := s.(interface{ SetRetireSource(int, RetireSource) }); ok {
		r.SetRetireSource(tid, src)
	}
}

// RetireSources returns the scheme's retirement counts by cause (zeros when
// the scheme does not account).
func RetireSources(s Scheme) [NumRetireSources]uint64 {
	if r, ok := s.(interface {
		RetireSources() [NumRetireSources]uint64
	}); ok {
		return r.RetireSources()
	}
	return [NumRetireSources]uint64{}
}

// Reservations exposes the reservation table (tests and diagnostics).
func (b *base) Reservations() *epoch.Table { return b.res }

// threadStore exposes tid's retire store (tests and diagnostics; callers
// must hold the same single-goroutine ownership of tid as the scan paths).
func (b *base) threadStore(tid int) *retireStore { return &b.ts[tid].store }

// allocEpochs implements the alloc cadence of Figs. 4/5: bump the counter,
// advance the epoch every EpochFreq allocations, allocate, stamp the birth
// epoch. Used by every scheme that tags births (all but EBR, HP, NoMM).
func (b *base) allocEpochs(tid int, drain func(int)) mem.Handle {
	ts := &b.ts[tid]
	ts.allocFailed = false
	ts.allocCount++
	// An allocation proves the thread's op loop is allocating, so the alloc
	// cadence is the one epoch source; reset retire's liveness fallback (see
	// base.retire) so a mixed alloc+retire workload advances the epoch once
	// per EpochFreq ops, not twice — the paper's Fig. 5 cadence.
	ts.sinceAdvance = 0
	if ts.allocCount%uint64(b.opts.EpochFreq) == 0 {
		e := b.clock.Advance()
		b.obs.EpochAdvance(tid, e)
	}
	h, ok := b.mem.Alloc(tid)
	if !ok {
		// Last resort: reclaim our own garbage, then retry once.
		drain(tid)
		if h, ok = b.mem.Alloc(tid); !ok {
			ts.allocFailed = true
			return mem.Nil
		}
	}
	birth := b.clock.Now()
	b.mem.SetBirth(h, birth)
	b.obs.Alloc(tid, birth)
	if b.obs.Enabled() {
		if si, ok := h.Slot(); ok {
			b.obs.BlockAlloc(tid, si, birth)
		}
	}
	return h
}

// allocPlain allocates without epoch stamping (EBR, DEBRA, Hyaline, HP,
// NoMM).
//
//ibrlint:ignore non-interval schemes: EBR, DEBRA, Hyaline, HP and NoMM never read birth epochs, so stamping is dead work (DEBRA and Hyaline stamp only retire epochs, in retire)
func (b *base) allocPlain(tid int, drain func(int)) mem.Handle {
	ts := &b.ts[tid]
	ts.allocFailed = false
	h, ok := b.mem.Alloc(tid)
	if !ok {
		if drain != nil {
			drain(tid)
		}
		if h, ok = b.mem.Alloc(tid); !ok {
			ts.allocFailed = true
			return mem.Nil
		}
	}
	b.obs.Alloc(tid, 0)
	if b.obs.Enabled() {
		if si, ok := h.Slot(); ok {
			b.obs.BlockAlloc(tid, si, 0)
		}
	}
	return h
}

// retire implements the retire cadence shared by Figs. 2/4/5: stamp the
// retire epoch, bucket the block into the thread-local store, and scan when
// the drain policy says to (see shouldDrain) — at once outside an operation,
// at the op boundary inside one (see exitOp).
//
// Epoch cadence: the clock has ONE advance source per op. For the
// epoch-tagging schemes that source is alloc (allocEpochs, the paper's §3
// cadence); retire advances only as a liveness fallback, after EpochFreq
// consecutive allocation-free retirements (a pure retire phase — e.g.
// draining a structure — performs no allocations, so without the fallback
// the epoch would freeze and every retired interval would touch the current
// epoch forever). Any allocation resets the fallback counter, so a mixed
// alloc+retire workload no longer advances twice per EpochFreq ops — the
// double-rate bug vs the paper's Fig. 5 cadence. For EBR-style schemes
// (allocPlain never touches the counter) the fallback fires every EpochFreq
// retirements, which IS the paper's Fig. 2 lines 15–17. Advancing on
// retirement cannot weaken Theorem 2's robustness bound — it only reduces
// the number of births per epoch.
func (b *base) retire(tid int, h mem.Handle, drain func(int)) {
	if h.IsNil() {
		panic("core: retire of nil handle")
	}
	h = h.Addr()
	ts := &b.ts[tid]
	e := b.clock.Now()
	b.mem.SetRetireEpoch(h, e)
	b.mem.MarkRetired(h)
	ts.store.add(h, b.mem.Birth(h), e, b.bucketShift)
	ts.unreclaimed.Store(int64(ts.store.count))
	b.obs.Retire(tid, e, ts.store.count)
	if b.obs.Enabled() {
		if si, ok := h.Slot(); ok {
			b.obs.BlockRetire(tid, si, e)
		}
	}
	ts.retireCount++
	ts.retiredBy[ts.retireSrc].Add(1)
	ts.sinceAdvance++
	if ts.sinceAdvance >= uint64(b.opts.EpochFreq) {
		ts.sinceAdvance = 0
		ne := b.clock.Advance()
		b.obs.EpochAdvance(tid, ne)
	}
	if b.shouldDrain(ts) {
		if ts.inOp {
			ts.drainDue = true
		} else {
			drain(tid)
		}
	}
}

// enterOp opens tid's operation bracket (the scanning schemes' StartOp).
// Until exitOp, a retire that reaches the drain trigger defers its scan.
func (b *base) enterOp(tid int) { b.ts[tid].inOp = true }

// exitOp closes tid's operation bracket and runs the scan a retire deferred
// to it; callers withdraw their reservation first. Fig. 5 scans inside the
// op, where the scanner's own interval keeps everything it retired since
// the op began. After EndOp the thread holds no handle, so this scan frees
// whatever the peers do not protect, and a tid's backlog stays within its
// drain watermark plus one op's retirements (DESIGN.md §3, "Op-boundary
// drains"). Only tid's goroutine touches inOp/drainDue: the cross-tid
// ClearReservation and AdoptRetired leave them alone.
func (b *base) exitOp(tid int, drain func(int)) {
	ts := &b.ts[tid]
	ts.inOp = false
	if ts.drainDue {
		ts.drainDue = false
		drain(tid)
	}
}

// shouldDrain is the drain policy. Adaptive (the scanning schemes): scan
// when the unreclaimed count reaches the watermark set after the last scan
// (its residue + drainStep, where drainStep is EmptyFreq after a productive
// scan and doubles up to 32×EmptyFreq while scans are futile), or — under
// the serving layer's drain-pressure flag — whenever the count is at least
// EmptyFreq over the residue, which collapses the backoff to the base
// cadence when space is the binding constraint. Fixed (Hyaline): every
// EmptyFreq retirements, the paper cadence; its seal-and-hand has no
// freed/examined yield for the watermark to learn from, and backing off
// would just grow the sealed batches.
func (b *base) shouldDrain(ts *threadState) bool {
	if !b.adaptive {
		return ts.retireCount%uint64(b.opts.EmptyFreq) == 0
	}
	if ts.store.count >= ts.drainAt {
		return true
	}
	return b.pressure.Load() && ts.store.count >= ts.drainAt-ts.drainStep+b.opts.EmptyFreq
}

// scan walks tid's retire store, freeing every block for which canFree
// returns true; it is the skeleton of the pointer-based empty() (HP, whose
// hazard test is per-address and gains nothing from epoch corners). The
// epoch and interval schemes use the cheaper scanRetiredBefore /
// scanSummarized below. Freed blocks are returned to the allocator in one
// batch at the end of the walk.
func (b *base) scan(tid int, canFree func(retiredBlock) bool) {
	ts := &b.ts[tid]
	t0 := b.obs.ScanStart(tid, b.clock.Now())
	ts.scans.Add(1)
	st := &ts.store
	examined := uint64(st.count)
	free := ts.freeScratch[:0]
	out := st.buckets[:0]
	for bi := range st.buckets {
		bk := &st.buckets[bi]
		w := bk.start
		for k := bk.start; k < len(bk.retires); k++ {
			rb := retiredBlock{h: bk.handles[k], birth: bk.births[k], retire: bk.retires[k]}
			if canFree(rb) {
				free = append(free, rb.h)
				st.count--
			} else {
				if w != k {
					bk.handles[w], bk.births[w], bk.retires[w] = bk.handles[k], bk.births[k], bk.retires[k]
				}
				w++
			}
		}
		bk.truncate(w)
		if bk.live() == 0 {
			st.recycle(bk)
			continue
		}
		bk.maybeCompact()
		out = append(out, *bk)
	}
	st.buckets = out
	st.hint = 0
	ts.scanned.Add(examined)
	ts.freeScratch = free
	b.finishScan(tid, free, nil, examined, t0)
}

// finishScan frees the collected batches — the residual per-block batch
// plus any whole buckets' handle arrays, under one free-list lock — and
// settles the counters and the adaptive-drain watermark. examined and t0
// feed the scan-end observability hook (t0 from the matching ScanStart;
// both are dead values when b.obs is nil).
func (b *base) finishScan(tid int, free []mem.Handle, whole [][]mem.Handle, examined uint64, t0 uint64) {
	ts := &b.ts[tid]
	freed := len(free)
	for _, hs := range whole {
		freed += len(hs)
	}
	ts.freed.Add(uint64(freed))
	ts.unreclaimed.Store(int64(ts.store.count))
	if b.adaptive {
		// Feed the watermark from this scan's yield. A scan that misses the
		// 2× examined-per-freed target (including the fully futile freed==0
		// case) doubles the step, up to 32×EmptyFreq: scanning less often
		// grows the freeable prefix while the re-examined kept tail stays the
		// same size, so the yield improves at the larger step. Once a scan
		// meets the target the step HOLDS there — that is the equilibrium the
		// doubling was searching for. The base cadence re-arms only when a
		// scan leaves less than one cadence-worth of backlog behind: the
		// residue the backoff was amortizing against is gone. The serving
		// layer's pressure flag overrides the backoff at the trigger (see
		// shouldDrain), not here.
		switch {
		case freed == 0 || examined > 2*uint64(freed):
			ts.drainStep *= 2
			if max := 32 * b.opts.EmptyFreq; ts.drainStep > max {
				ts.drainStep = max
			}
		case ts.store.count < b.opts.EmptyFreq:
			ts.drainStep = b.opts.EmptyFreq
		}
		ts.drainAt = ts.store.count + ts.drainStep
	}
	if b.obs.Enabled() {
		// Record each reclaimed block's retire→free age in epochs — the
		// live distribution behind Fig. 9's unreclaimed growth. The retire
		// epochs must be read before the frees recycle the slots; ages are
		// bucketed locally and flushed once so the per-block cost is a load
		// and an increment, not an atomic RMW.
		now := b.clock.Now()
		var ages obs.BucketCounts
		var sum uint64
		for _, h := range free {
			age := now - b.mem.RetireEpoch(h)
			ages[obs.BucketOf(age)]++
			sum += age
			if si, ok := h.Slot(); ok {
				b.obs.BlockFree(tid, si, age)
			}
		}
		for _, hs := range whole {
			for _, h := range hs {
				age := now - b.mem.RetireEpoch(h)
				ages[obs.BucketOf(age)]++
				sum += age
				if si, ok := h.Slot(); ok {
					b.obs.BlockFree(tid, si, age)
				}
			}
		}
		b.obs.FreeAgeBatch(&ages, sum)
		b.obs.ScanEnd(tid, t0, int(examined), freed)
	}
	if freed > 0 {
		tf := b.obs.PhaseStart()
		if whole == nil {
			whole = ts.wholeScratch[:0] // no whole buckets: reuse the list for free
		}
		whole = append(whole, free)
		b.mem.FreeBatches(tid, whole...)
		b.obs.PhaseEnd(obs.PhaseFreeBatch, tf)
		clear(whole) // drop the references to the freed arrays
		ts.wholeScratch = whole[:0]
	}
}

// scanRetiredBefore is EBR's empty(): free every block retired strictly
// before maxSafe. Within each bucket the retire epochs are sorted (the
// global clock is monotone), so the freeable blocks form a prefix of the
// live window — the scan frees that prefix and stops at the first kept
// block instead of re-walking the backlog, so a scan's cost stays
// O(freed + buckets) no matter how large a stalled reservation has let the
// store grow. (EBR and DEBRA stamp no births, so their store degenerates to
// the single birth-0 bucket and the cost is the flat list's O(freed+1).) A
// fully-freed bucket hands its whole handle array to the allocator; a
// partially-freed one advances its live window and compacts when the dead
// prefix has grown past the compaction gates.
func (b *base) scanRetiredBefore(tid int, maxSafe uint64) {
	ts := &b.ts[tid]
	t0 := b.obs.ScanStart(tid, b.clock.Now())
	ts.scans.Add(1)
	st := &ts.store
	free := ts.freeScratch[:0]
	whole := ts.wholeScratch[:0]
	var examined, bFrees uint64
	tSweep := b.obs.PhaseStart()
	out := st.buckets[:0]
	for bi := range st.buckets {
		bk := &st.buckets[bi]
		s0, e := bk.start, len(bk.retires)
		i := s0
		for i < e && bk.retires[i] < maxSafe {
			i++
		}
		examined += uint64(i - s0)
		if i < e {
			examined++ // the first kept block was examined too
		}
		if i == e {
			whole = append(whole, bk.handles[s0:e])
			st.count -= e - s0
			bFrees++
			st.recycle(bk)
			continue
		}
		if i > s0 {
			free = append(free, bk.handles[s0:i]...)
			st.count -= i - s0
			bk.start = i
			bk.maybeCompact()
		}
		out = append(out, *bk)
	}
	st.buckets = out
	st.hint = 0
	b.obs.PhaseEnd(obs.PhaseResidualSweep, tSweep)
	ts.scanned.Add(examined)
	ts.bucketFrees.Add(bFrees)
	b.obs.ScanBuckets(tid, 0, bFrees)
	if b.obs.Enabled() {
		// EBR-style blame: the kept suffix is pinned by exactly the
		// reservation holding the minimum lower endpoint (maxSafe's argmin) —
		// one charge for the whole backlog, the suffix is never walked.
		blame := b.blameScratch(tid)
		if st.count > 0 {
			if w, lo := b.res.MinLowerSlot(); lo != epoch.None {
				charge(blame, w, uint64(st.count))
			}
		}
		b.obs.PinBlame(tid, blame)
	}
	ts.freeScratch = free
	b.finishScan(tid, free, whole, examined, t0)
}

// interval is one reserved epoch range [lo, hi]. The conflict test of
// Fig. 5 line 26: a block is protected iff some interval satisfies
// birth <= hi && retire >= lo. The snapshot is taken once per scan; each
// interval was published by its thread, and any thread that read a pointer
// to a scanned block before its retirement had already published a covering
// interval, so a snapshot sees it. tid remembers the reserving thread for
// pinned-memory blame attribution (kept blocks are charged to the witness
// interval's tid); it plays no part in the conflict test itself.
type interval struct {
	lo, hi uint64
	tid    int32
}

func (b *base) snapshotIntervals(buf []interval) []interval {
	buf = buf[:0]
	for i := 0; i < b.res.Len(); i++ {
		r := b.res.At(i)
		lo, hi := r.Lower(), r.Upper()
		if lo == epoch.None && hi == epoch.None {
			continue
		}
		buf = append(buf, interval{lo, hi, int32(i)})
	}
	return buf
}

// conflicts is the naive conflict test: a linear sweep over the snapshot
// per block, O(|reservations|) each. It is the reference the summarized
// test is checked against (props tests) — scans use resSummary instead.
func conflicts(ivs []interval, birth, retire uint64) bool {
	for _, iv := range ivs {
		if birth <= iv.hi && retire >= iv.lo {
			return true
		}
	}
	return false
}

// resSummary is a per-scan digest of the reservation intervals that turns
// the naive O(|reservations|) per-block conflict sweep into O(1) for the
// common cases and O(log |reservations|) in general:
//
//   - ivs sorted by lower endpoint with prefHi[i] = max(ivs[..i].hi) makes
//     "∃ interval: birth <= hi && retire >= lo" equivalent to "among the
//     intervals with lo <= retire (a sorted prefix, found by binary
//     search), the max upper endpoint is >= birth".
//   - minLower (= ivs[0].lo) gives the one-comparison fast path: a block
//     with retire < minLower predates every reservation and is free.
//   - [winLo, winHi] is the protected window of the interval with the
//     largest upper endpoint (smallest such lo on ties): any block whose
//     retire epoch falls inside it conflicts regardless of birth (birth <=
//     retire <= winHi and retire >= winLo), so a run of consecutive blocks
//     retired inside the window is kept wholesale without per-block tests.
type resSummary struct {
	ivs      []interval
	prefHi   []uint64
	prefIdx  []int32 // index into ivs achieving prefHi[i] (blame witness)
	minLower uint64  // epoch.None when no reservation is published
	winLo    uint64  // protected window; winLo > winHi when empty
	winHi    uint64
	winTid   int32 // tid of the window's interval; -1 when the window is empty
}

// build digests the snapshot (the slice is retained and re-sorted in
// place).
func (s *resSummary) build(ivs []interval) {
	s.ivs = ivs
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	s.prefHi = s.prefHi[:0]
	s.prefIdx = s.prefIdx[:0]
	maxHi := uint64(0)
	maxIdx := int32(0)
	for i, iv := range ivs {
		if iv.hi > maxHi {
			maxHi = iv.hi
			maxIdx = int32(i)
		}
		s.prefHi = append(s.prefHi, maxHi)
		s.prefIdx = append(s.prefIdx, maxIdx)
	}
	s.minLower = epoch.None
	s.winLo, s.winHi = 1, 0 // empty window
	s.winTid = -1
	if len(ivs) == 0 {
		return
	}
	s.minLower = ivs[0].lo
	s.winHi = maxHi
	for _, iv := range ivs { // smallest lo among intervals reaching maxHi
		if iv.hi == maxHi {
			s.winLo = iv.lo
			s.winTid = iv.tid
			break
		}
	}
}

// conflicts is the summarized form of the Fig. 5 conflict test; it returns
// exactly what conflicts(ivs, birth, retire) returns on the same snapshot
// (the differential property test in scan_test.go proves the equivalence).
func (s *resSummary) conflicts(birth, retire uint64) bool {
	if retire < s.minLower {
		return false
	}
	// Largest prefix of intervals with lo <= retire.
	j := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].lo > retire })
	return j > 0 && s.prefHi[j-1] >= birth
}

// witness returns the tid the summarized conflict test certifies
// conflicts(birth, retire) with — the max-upper interval among those with
// lo <= retire — or -1 when there is no conflict. This is the
// blame-charging rule (DESIGN.md §9): a kept block is charged to exactly
// the reservation the conflict test would name, so a keep-all corner test
// charges its whole bucket to one witness in O(log |reservations|) and the
// attribution costs nothing the scan was not already paying.
func (s *resSummary) witness(birth, retire uint64) int {
	if retire < s.minLower {
		return -1
	}
	j := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].lo > retire })
	if j > 0 && s.prefHi[j-1] >= birth {
		return int(s.ivs[s.prefIdx[j-1]].tid)
	}
	return -1
}

// summarize snapshots the reservation table into tid's summary scratch.
func (b *base) summarize(tid int) *resSummary {
	t0 := b.obs.PhaseStart()
	sum := &b.ts[tid].sum
	sum.build(b.snapshotIntervals(sum.ivs))
	b.obs.PhaseEnd(obs.PhaseSummarize, t0)
	return sum
}

// blameScratch returns tid's zeroed per-witness blame accumulator, sized to
// the reservation table. Only the observability-on scan paths allocate it.
func (b *base) blameScratch(tid int) []uint64 {
	ts := &b.ts[tid]
	n := b.res.Len()
	if cap(ts.blame) < n {
		ts.blame = make([]uint64, n)
	}
	ts.blame = ts.blame[:n]
	for i := range ts.blame {
		ts.blame[i] = 0
	}
	return ts.blame
}

// charge adds n kept blocks to witness tid w's blame row (no-op for the
// blame-off nil slice and the no-witness w = -1).
func charge(blame []uint64, w int, n uint64) {
	if blame != nil && w >= 0 && w < len(blame) {
		blame[w] += n
	}
}

// scanSummarized is the interval schemes' and HE's empty(): one summary per
// scan, then a sweep over the bucketed store that decides as much as it can
// wholesale before touching blocks.
//
// The whole-bucket (and whole-store) decisions rest on the conflict test's
// monotonicity in the block's lifetime corner: conflicts(birth, retire) can
// only gain witnesses as birth decreases or retire increases. Two corner
// lemmas follow, both exact (not approximations):
//
//   - Free-all: if the most-protectable corner (birthLo, retireHi) — the
//     earliest birth paired with the latest retire over the bucket — has no
//     conflict, then no block in the bucket has one (every block's interval
//     is contained in the corner's), and the whole bucket frees on one test.
//   - Keep-all: if conflicts(birthHi, retireLo) holds, the witnessing
//     reservation satisfies lo <= retireLo and hi >= birthHi, so it covers
//     every block in the bucket (each has retire >= retireLo and birth <=
//     birthHi), and the whole bucket is kept on one test. (The converse
//     direction needs the single-witness form, which is why the test uses
//     the raw conflict predicate rather than reasoning per-endpoint.)
//
// The same two tests run once against the whole store's corners first, so a
// backlog fully pinned by one stalled reader costs ONE conflict test per
// scan, and a quiescent drain frees everything with two. Only buckets that
// straddle a reservation boundary are swept block-by-block — and that
// residual sweep is a branch-light pass over the bucket's packed epoch
// arrays: a binary-searched prefix free below minLower, protected-window
// runs kept in one jump, and an amortized-O(1) merge pointer for the rest
// (retires are sorted within a bucket).
func (b *base) scanSummarized(tid int, sum *resSummary) {
	ts := &b.ts[tid]
	t0 := b.obs.ScanStart(tid, b.clock.Now())
	ts.scans.Add(1)
	st := &ts.store
	free := ts.freeScratch[:0]
	whole := ts.wholeScratch[:0]
	var examined, bSkips, bFrees uint64
	var blame []uint64
	if b.obs.Enabled() {
		blame = b.blameScratch(tid)
	}

	tDecide := b.obs.PhaseStart()
	swept := false
	if st.count > 0 {
		gBLo, gBHi, gRLo, gRHi := st.corners()
		examined++
		if sum.conflicts(gBHi, gRLo) {
			// Store-level keep-all: one reservation covers every block —
			// charge the whole backlog to that single witness, O(1).
			bSkips += uint64(len(st.buckets))
			charge(blame, sum.witness(gBHi, gRLo), uint64(st.count))
			b.obs.BucketSkip(tid, gBLo, gBHi)
		} else {
			examined++
			if !sum.conflicts(gBLo, gRHi) {
				// Store-level free-all: nothing is protected.
				bFrees += uint64(len(st.buckets))
				for bi := range st.buckets {
					bk := &st.buckets[bi]
					whole = append(whole, bk.handles[bk.start:])
					st.recycle(bk)
				}
				st.buckets = st.buckets[:0]
				st.count = 0
				st.hint = 0
			} else {
				b.obs.PhaseEnd(obs.PhaseBucketDecide, tDecide)
				swept = true
				examined = b.sweepBuckets(tid, st, sum, &free, &whole, examined, &bSkips, &bFrees, blame)
			}
		}
	}
	if !swept {
		b.obs.PhaseEnd(obs.PhaseBucketDecide, tDecide)
	}

	ts.scanned.Add(examined)
	ts.bucketSkips.Add(bSkips)
	ts.bucketFrees.Add(bFrees)
	b.obs.ScanBuckets(tid, bSkips, bFrees)
	b.obs.PinBlame(tid, blame)
	ts.freeScratch = free
	b.finishScan(tid, free, whole, examined, t0)
}

// sweepBuckets is scanSummarized's per-bucket pass: corner-test each bucket,
// then sweep block-by-block only the buckets both corner tests fail on.
// blame (nil when observability is off) accumulates kept blocks per witness
// tid; wholesale keeps charge their single witness in O(1), never a walk.
func (b *base) sweepBuckets(tid int, st *retireStore, sum *resSummary, free *[]mem.Handle, whole *[][]mem.Handle, examined uint64, bSkips, bFrees *uint64, blame []uint64) uint64 {
	tSweep := b.obs.PhaseStart()
	out := st.buckets[:0]
	for bi := range st.buckets {
		bk := &st.buckets[bi]
		s0, e := bk.start, len(bk.retires)
		examined++
		if sum.conflicts(bk.birthHi, bk.retires[s0]) {
			// Keep-all corner: one reservation covers the whole bucket.
			*bSkips++
			charge(blame, sum.witness(bk.birthHi, bk.retires[s0]), uint64(e-s0))
			b.obs.BucketSkip(tid, bk.birthLo, bk.birthHi)
			out = append(out, *bk)
			continue
		}
		examined++
		if !sum.conflicts(bk.birthLo, bk.retires[e-1]) {
			// Free-all corner: nothing in the bucket is protected.
			*bFrees++
			*whole = append(*whole, bk.handles[s0:e])
			st.count -= e - s0
			st.recycle(bk)
			continue
		}
		// Residual sweep. Prefix free below minLower first: retires are
		// sorted, so the fast path of the flat scan becomes one binary
		// search plus a bulk append.
		p := s0 + sort.Search(e-s0, func(k int) bool { return bk.retires[s0+k] >= sum.minLower })
		if p > s0 {
			examined++
			*free = append(*free, bk.handles[s0:p]...)
			st.count -= p - s0
			bk.start = p
		}
		w := p // in-place write index for kept entries
		j := 0 // #intervals with lo <= current block's retire (merge pointer)
		for k := p; k < e; {
			r := bk.retires[k]
			if sum.winLo <= r && r <= sum.winHi {
				// Protected-window run: every consecutive block retired at
				// or before winHi is kept without a per-block conflict test.
				q := k + sort.Search(e-k, func(m int) bool { return bk.retires[k+m] > sum.winHi })
				examined++
				charge(blame, int(sum.winTid), uint64(q-k))
				if w != k {
					copy(bk.handles[w:], bk.handles[k:q])
					copy(bk.births[w:], bk.births[k:q])
					copy(bk.retires[w:], bk.retires[k:q])
				}
				w += q - k
				k = q
				continue
			}
			// Segment: every consecutive block retired before the next
			// interval lower endpoint sees the same interval prefix, hence
			// the same protecting max-upper H = prefHi[j-1]. The bucket's
			// birth bounds then decide most segments wholesale: birthHi <= H
			// keeps all (H's interval has lo <= r for the whole segment),
			// birthLo > H frees all (no interval in the prefix reaches any
			// birth). Only a segment H splits falls back to per-block tests —
			// and those are one birth comparison each.
			for j < len(sum.ivs) && sum.ivs[j].lo <= r {
				j++
			}
			segEnd := e
			if j < len(sum.ivs) {
				nlo := sum.ivs[j].lo
				segEnd = k + sort.Search(e-k, func(m int) bool { return bk.retires[k+m] >= nlo })
			}
			examined++
			switch {
			case j == 0:
				*free = append(*free, bk.handles[k:segEnd]...)
				st.count -= segEnd - k
			case bk.birthHi <= sum.prefHi[j-1]:
				charge(blame, int(sum.ivs[sum.prefIdx[j-1]].tid), uint64(segEnd-k))
				if w != k {
					copy(bk.handles[w:], bk.handles[k:segEnd])
					copy(bk.births[w:], bk.births[k:segEnd])
					copy(bk.retires[w:], bk.retires[k:segEnd])
				}
				w += segEnd - k
			case bk.birthLo > sum.prefHi[j-1]:
				*free = append(*free, bk.handles[k:segEnd]...)
				st.count -= segEnd - k
			default:
				h := sum.prefHi[j-1]
				wit := int(sum.ivs[sum.prefIdx[j-1]].tid)
				for m := k; m < segEnd; m++ {
					examined++
					if bk.births[m] <= h {
						charge(blame, wit, 1)
						if blame != nil {
							if si, ok := bk.handles[m].Slot(); ok {
								b.obs.BlockKept(tid, si, wit)
							}
						}
						if w != m {
							bk.handles[w], bk.births[w], bk.retires[w] = bk.handles[m], bk.births[m], bk.retires[m]
						}
						w++
					} else {
						*free = append(*free, bk.handles[m])
						st.count--
					}
				}
			}
			k = segEnd
		}
		bk.truncate(w)
		if bk.live() == 0 {
			st.recycle(bk)
			continue
		}
		bk.maybeCompact()
		out = append(out, *bk)
	}
	st.buckets = out
	st.hint = 0
	b.obs.PhaseEnd(obs.PhaseResidualSweep, tSweep)
	return examined
}

// publishSpan records the publish leg of a traced block's lifecycle span:
// the handle was stored into a shared pointer. Scheme Write/CAS sites gate
// the call on s.obs != nil so the store hot path pays one predictable
// branch when observability is off; the sampling mask inside BlockPublish
// then drops untraced slots.
func (b *base) publishSpan(tid int, h mem.Handle) {
	if si, ok := h.Slot(); ok {
		b.obs.BlockPublish(tid, si)
	}
}

// scanIntervals is the shared empty() of POIBR, TagIBR and 2GEIBR: digest
// the reservation table once, then scan against the summary.
func (b *base) scanIntervals(tid int) {
	b.scanSummarized(tid, b.summarize(tid))
}

// sortedContains reports whether x occurs in the sorted slice s.
func sortedContains(s []uint64, x uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// TotalUnreclaimed sums Unreclaimed over all threads.
func TotalUnreclaimed(s Scheme, threads int) int {
	total := 0
	for tid := 0; tid < threads; tid++ {
		total += s.Unreclaimed(tid)
	}
	return total
}

// DrainAll forces a scan on every thread id; used at shutdown and in tests.
// It must be called only when no operations are in flight.
func DrainAll(s Scheme, threads int) {
	for tid := 0; tid < threads; tid++ {
		s.Drain(tid)
	}
}

// canonicalName resolves the accepted aliases ("nomm", "epoch", "2ge") to
// their registry names; unknown strings pass through unchanged.
func canonicalName(name string) string {
	switch name {
	case "nomm":
		return "none"
	case "epoch":
		return "ebr"
	case "2ge":
		return "2geibr"
	}
	return name
}

// schemeEntry couples one registry name with its constructor. The registry
// table below is the single source of truth behind New, Names, Schemes and
// IsScheme, so registering a scheme in one place registers it everywhere —
// the previous hand-duplicated Names/Schemes lists could silently disagree.
type schemeEntry struct {
	name string
	ctor func(Memory, Options) Scheme
}

// registry lists every scheme in the order the paper's plots use (NoMM
// first, then the baselines, then the IBR family), followed by the
// post-paper engines (Hyaline, neutralization EBR).
var registry = []schemeEntry{
	{"none", func(m Memory, o Options) Scheme { return NewNoMM(m, o) }},
	{"ebr", func(m Memory, o Options) Scheme { return NewEBR(m, o) }},
	{"hp", func(m Memory, o Options) Scheme { return NewHP(m, o) }},
	{"he", func(m Memory, o Options) Scheme { return NewHE(m, o) }},
	{"poibr", func(m Memory, o Options) Scheme { return NewPOIBR(m, o) }},
	{"tagibr", func(m Memory, o Options) Scheme { return NewTagIBR(m, o, TagCAS) }},
	{"tagibr-faa", func(m Memory, o Options) Scheme { return NewTagIBR(m, o, TagFAA) }},
	{"tagibr-wcas", func(m Memory, o Options) Scheme { return NewTagIBR(m, o, TagWCAS) }},
	{"tagibr-tpa", func(m Memory, o Options) Scheme { return NewTagIBR(m, o, TagTPA) }},
	{"2geibr", func(m Memory, o Options) Scheme { return NewTwoGE(m, o) }},
	{"hyaline", func(m Memory, o Options) Scheme { return NewHyaline(m, o) }},
	{"debra", func(m Memory, o Options) Scheme { return NewDEBRA(m, o) }},
}

// New constructs a scheme by registry name over the given Memory.
// Names: "none", "ebr", "hp", "he", "poibr", "tagibr", "tagibr-faa",
// "tagibr-wcas", "tagibr-tpa", "2geibr", "hyaline", "debra"
// (aliases: "nomm", "epoch", "2ge").
func New(name string, m Memory, o Options) (Scheme, error) {
	c := canonicalName(name)
	for _, e := range registry {
		if e.name == c {
			return e.ctor(m, o), nil
		}
	}
	return nil, fmt.Errorf("core: unknown scheme %q", name)
}

// Names lists every registered scheme name in the order the paper's plots
// use (NoMM first, then the baselines, then the IBR family, then the
// post-paper engines). It is derived from the registry table, so it cannot
// drift from New or Schemes.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Schemes returns the registered scheme names sorted lexically — the form
// command-line tools print when rejecting an unknown -d flag. Same set as
// Names, same table.
func Schemes() []string {
	out := Names()
	sort.Strings(out)
	return out
}

// IsScheme reports whether name (or one of its aliases) is a registered
// scheme, without constructing one.
func IsScheme(name string) bool {
	c := canonicalName(name)
	for _, e := range registry {
		if e.name == c {
			return true
		}
	}
	return false
}
