package core

// store.go: birth-epoch bucketed, structure-of-arrays storage for retired
// blocks. Every thread's retire backlog lives in a retireStore: buckets
// keyed by birth-epoch range (key = birth >> bucketShift), each holding its
// blocks' handles, birth epochs and retire epochs in three parallel arrays.
//
// The layout exists for the scans:
//
//   - The birth range of a bucket is bounded (its key fixes birth to a
//     2^shift-epoch window, and birthLo/birthHi track the exact bounds), and
//     within a bucket the retire epochs are sorted ascending (appends come
//     from a monotone global clock, and AdoptRetired merges by retire
//     epoch). The conflict test of Fig. 5 — ∃ interval: birth <= hi &&
//     retire >= lo — is monotone in the block's lifetime corner (a smaller
//     birth or a larger retire can only add conflicts), so ONE corner test
//     decides a whole bucket: if the most-protectable corner (birthHi,
//     firstRetire) is unprotected-by-every-interval... see the two corner
//     lemmas on scanSummarized in api.go.
//   - The residual per-block sweep inside a bucket is a linear pass over
//     packed []uint64 cache lines, not struct loads.
//
// The live window of a bucket is [start, len): EBR-style prefix frees
// advance start instead of memmoving the survivors, and maybeCompact
// re-rightsizes the arrays when the dead capacity (freed prefix plus append
// slack) dwarfs the live remainder — the fix for stall-grown backing arrays
// staying pinned after a quarantine drain.

import (
	"sort"

	"ibr/internal/mem"
)

// defaultBucketShift sets the birth-epoch width of one bucket to
// 2^5 = 32 epochs. At the paper's EpochFreq=150 cadence a bucket then spans
// ~4800 allocations per advancing thread — big enough that corner tests
// amortize, small enough that a reservation window only straddles a few
// buckets. Options.BucketShift overrides it (tests use extreme values).
const defaultBucketShift = 5

// Compaction gates: a bucket's arrays are reallocated to the live size when
// the capacity is at least storeCompactMin slots and at least
// storeCompactFactor times the live count. Below storeCompactMin the waste
// is bounded and not worth the copy.
const (
	storeCompactMin    = 1024
	storeCompactFactor = 4
)

// retireBucket is one birth-epoch bucket. handles, births and retires are
// parallel arrays; [start, len) is the live window; retires is sorted
// ascending over the live window.
type retireBucket struct {
	key     uint64 // birth >> bucketShift
	birthLo uint64 // min birth over live entries (conservative after frees)
	birthHi uint64 // max birth over live entries (conservative after frees)
	start   int
	handles []mem.Handle
	births  []uint64
	retires []uint64
}

// live returns the number of live entries.
func (bk *retireBucket) live() int { return len(bk.retires) - bk.start }

// firstRetire/lastRetire bound the live retire epochs (retires is sorted).
// Both require live() > 0.
func (bk *retireBucket) firstRetire() uint64 { return bk.retires[bk.start] }
func (bk *retireBucket) lastRetire() uint64  { return bk.retires[len(bk.retires)-1] }

// truncate shrinks the live window's upper end to w (entries [w, len) were
// freed or moved down by an in-place sweep).
func (bk *retireBucket) truncate(w int) {
	bk.handles = bk.handles[:w]
	bk.births = bk.births[:w]
	bk.retires = bk.retires[:w]
}

// maybeCompact reallocates the arrays to the live size when the dead
// capacity (freed prefix + append slack) exceeds the compaction gates, so a
// stall-grown backing array does not stay pinned after its backlog drains.
func (bk *retireBucket) maybeCompact() {
	n := bk.live()
	if cap(bk.retires) < storeCompactMin || cap(bk.retires) < storeCompactFactor*n {
		return
	}
	h := make([]mem.Handle, n)
	b := make([]uint64, n)
	r := make([]uint64, n)
	copy(h, bk.handles[bk.start:])
	copy(b, bk.births[bk.start:])
	copy(r, bk.retires[bk.start:])
	bk.handles, bk.births, bk.retires = h, b, r
	bk.start = 0
}

// retireStore is one thread's bucketed retire backlog. buckets is sorted by
// key; count is the total live entries across buckets. Emptied buckets'
// array sets are kept as spares for new buckets, so steady-state bucket
// churn does not allocate three slices per bucket. There can be many: the
// blocks a hash map retires were born across the structure's whole
// history, so one scan may empty dozens of small buckets and the next
// retirements open as many again.
type retireStore struct {
	buckets []retireBucket
	count   int
	hint    int // index of the bucket the last add landed in

	spares   []spareSet
	spareCap int // total capacity held in spares, at most storeCompactMin
}

// spareSet is one emptied bucket's arrays, kept for the next new bucket.
type spareSet struct {
	h    []mem.Handle
	b, r []uint64
}

// add appends one retired block. retire must be >= every live retire epoch
// already in its bucket (true for owner appends under a monotone clock).
func (st *retireStore) add(h mem.Handle, birth, retire uint64, shift uint) {
	key := birth >> shift
	bi := st.hint
	if bi >= len(st.buckets) || st.buckets[bi].key != key {
		i := sort.Search(len(st.buckets), func(i int) bool { return st.buckets[i].key >= key })
		if i == len(st.buckets) || st.buckets[i].key != key {
			st.buckets = append(st.buckets, retireBucket{})
			copy(st.buckets[i+1:], st.buckets[i:])
			nb := retireBucket{key: key, birthLo: birth, birthHi: birth}
			if n := len(st.spares); n > 0 {
				sp := st.spares[n-1]
				st.spares[n-1] = spareSet{}
				st.spares = st.spares[:n-1]
				st.spareCap -= cap(sp.r)
				nb.handles, nb.births, nb.retires = sp.h, sp.b, sp.r
			}
			st.buckets[i] = nb
		}
		bi = i
		st.hint = i
	}
	bk := &st.buckets[bi]
	if birth < bk.birthLo {
		bk.birthLo = birth
	}
	if birth > bk.birthHi {
		bk.birthHi = birth
	}
	bk.handles = append(bk.handles, h)
	bk.births = append(bk.births, birth)
	bk.retires = append(bk.retires, retire)
	st.count++
}

// recycle stashes an emptied bucket's arrays as a spare set while the
// spares' total capacity stays within storeCompactMin — stall-grown arrays
// held as spares would be the same heap retention the compaction gates
// exist to prevent. The arrays may still be aliased by a pending
// whole-bucket free slice; that is safe because the store's owner finishes
// the scan (and the FreeBatch read) before its next add can touch the
// spare.
func (st *retireStore) recycle(bk *retireBucket) {
	if c := cap(bk.retires); c > 0 && st.spareCap+c <= storeCompactMin {
		st.spares = append(st.spares, spareSet{h: bk.handles[:0], b: bk.births[:0], r: bk.retires[:0]})
		st.spareCap += c
	}
	bk.handles, bk.births, bk.retires = nil, nil, nil
}

// corners returns the global lifetime corners over all live entries:
// the minimum/maximum birth and the minimum/maximum retire epoch. Requires
// count > 0.
func (st *retireStore) corners() (birthLo, birthHi, retLo, retHi uint64) {
	birthLo, retLo = ^uint64(0), ^uint64(0)
	for i := range st.buckets {
		bk := &st.buckets[i]
		if bk.live() == 0 {
			continue
		}
		if bk.birthLo < birthLo {
			birthLo = bk.birthLo
		}
		if bk.birthHi > birthHi {
			birthHi = bk.birthHi
		}
		if f := bk.firstRetire(); f < retLo {
			retLo = f
		}
		if l := bk.lastRetire(); l > retHi {
			retHi = l
		}
	}
	return birthLo, birthHi, retLo, retHi
}

// takeAll removes every live entry and returns them sorted by retire epoch
// (Hyaline's seal; adoption-merged buckets keep per-bucket order, so a
// cross-bucket sort restores the global order the batch handoff wants).
func (st *retireStore) takeAll() []retiredBlock {
	out := make([]retiredBlock, 0, st.count)
	for i := range st.buckets {
		bk := &st.buckets[i]
		for k := bk.start; k < len(bk.retires); k++ {
			out = append(out, retiredBlock{h: bk.handles[k], birth: bk.births[k], retire: bk.retires[k]})
		}
		st.recycle(bk)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].retire < out[j].retire })
	st.buckets = st.buckets[:0]
	st.count = 0
	st.hint = 0
	return out
}

// snapshot returns a copy of every live entry sorted by retire epoch,
// without modifying the store (tests and diagnostics).
func (st *retireStore) snapshot() []retiredBlock {
	out := make([]retiredBlock, 0, st.count)
	for i := range st.buckets {
		bk := &st.buckets[i]
		for k := bk.start; k < len(bk.retires); k++ {
			out = append(out, retiredBlock{h: bk.handles[k], birth: bk.births[k], retire: bk.retires[k]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].retire < out[j].retire })
	return out
}

// heldCap reports the total backing-array capacity (in entries) the store
// pins, including dead prefixes and append slack — the heap-retention
// metric the compaction regression test asserts on.
func (st *retireStore) heldCap() int {
	n := st.spareCap
	for i := range st.buckets {
		n += cap(st.buckets[i].retires)
	}
	return n
}

// adopt merges every live entry of src into st, preserving the per-bucket
// sorted-by-retire invariant: same-key buckets are merged by retire epoch
// (two already-sorted sequences), distinct keys move wholesale. Returns the
// number of entries adopted; src is left empty.
func (st *retireStore) adopt(src *retireStore) int {
	moved := src.count
	if moved == 0 {
		return 0
	}
	if st.count == 0 {
		st.buckets, src.buckets = src.buckets, nil
	} else {
		a, b := st.buckets, src.buckets
		merged := make([]retireBucket, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i].key < b[j].key:
				merged = append(merged, a[i])
				i++
			case b[j].key < a[i].key:
				merged = append(merged, b[j])
				j++
			default:
				merged = append(merged, mergeBuckets(&a[i], &b[j]))
				i++
				j++
			}
		}
		merged = append(merged, a[i:]...)
		merged = append(merged, b[j:]...)
		st.buckets = merged
		src.buckets = nil
	}
	st.count += moved
	st.hint = 0
	src.count = 0
	src.hint = 0
	return moved
}

// mergeBuckets merges two same-key buckets' live windows by retire epoch
// into a fresh bucket. Both inputs' arrays are released.
func mergeBuckets(a, b *retireBucket) retireBucket {
	na, nb := a.live(), b.live()
	out := retireBucket{
		key:     a.key,
		birthLo: minU64(a.birthLo, b.birthLo),
		birthHi: maxU64(a.birthHi, b.birthHi),
		handles: make([]mem.Handle, 0, na+nb),
		births:  make([]uint64, 0, na+nb),
		retires: make([]uint64, 0, na+nb),
	}
	i, j := a.start, b.start
	for i < len(a.retires) && j < len(b.retires) {
		if a.retires[i] <= b.retires[j] {
			out.handles = append(out.handles, a.handles[i])
			out.births = append(out.births, a.births[i])
			out.retires = append(out.retires, a.retires[i])
			i++
		} else {
			out.handles = append(out.handles, b.handles[j])
			out.births = append(out.births, b.births[j])
			out.retires = append(out.retires, b.retires[j])
			j++
		}
	}
	out.handles = append(out.handles, a.handles[i:]...)
	out.births = append(out.births, a.births[i:]...)
	out.retires = append(out.retires, a.retires[i:]...)
	out.handles = append(out.handles, b.handles[j:]...)
	out.births = append(out.births, b.births[j:]...)
	out.retires = append(out.retires, b.retires[j:]...)
	return out
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
