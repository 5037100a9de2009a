package server

import (
	"sync"

	"ibr/internal/core"
	"ibr/internal/ds"
	"ibr/internal/obs"
)

// Range execution. Keys are hashed across shards, so one Range fans out to
// every shard: each leg scans its shard's structure inside a single
// reservation bracket (ds.Ranger's contract) — the paper's long-running
// read, one interval per shard — and reports its sorted slice to the
// shared collector. The last leg to finish merges the slices and completes
// the caller's request exactly once.
//
// A warmed scan path allocates nothing: collectors, leg buffers and merged
// results are pooled. Leg buffers go back to their pool as soon as the
// merge has copied them out. A merged result belongs to whoever the
// request completes to: the wire path returns it to resultPairs after its
// writer has encoded it, while a SubmitRequest or DoContext caller keeps
// it for good.
type rangeOp struct {
	from, to uint64
	limit    int

	mu      sync.Mutex
	pending int // legs not yet reported, +1 submission sentinel
	status  Status
	parts   [][]Pair // the legs' buffers, from legPairs
	live    [][]Pair // merge scratch: the unexhausted tails of parts
	c       completer
	t       tag
}

var rangeOps = sync.Pool{New: func() any { return new(rangeOp) }}

// maxPooledPairs caps the capacity of a pooled pair buffer (256 KiB): a
// buffer one huge scan grew past it is left to the GC rather than pinned
// for the next scan.
const maxPooledPairs = 16 << 10

// pairPool is a size-capped pool of pair buffers. It stores them boxed —
// a bare slice put in a sync.Pool allocates its header on every put — and
// recycles the emptied boxes through pairBoxes, so neither get nor put
// allocates in steady state.
type pairPool struct{ p sync.Pool }

type pairBuf struct{ s []Pair }

var pairBoxes sync.Pool

// Leg buffers and merged results pool apart: a result is about shards ×
// a leg's size, so one drawn from a shared pool would rarely fit.
var legPairs, resultPairs pairPool

// get returns an empty buffer, nil when the pool has none.
func (pp *pairPool) get() []Pair {
	b, _ := pp.p.Get().(*pairBuf)
	if b == nil {
		return nil
	}
	s := b.s
	b.s = nil
	pairBoxes.Put(b)
	return s
}

// put recycles s; the caller must not touch it afterwards.
func (pp *pairPool) put(s []Pair) {
	if cap(s) == 0 || cap(s) > maxPooledPairs {
		return
	}
	b, _ := pairBoxes.Get().(*pairBuf)
	if b == nil {
		b = new(pairBuf)
	}
	b.s = s[:0]
	pp.p.Put(b)
}

// finish retires one leg (or the submission sentinel), folding its result
// in; the caller that drops pending to zero completes the request. A leg
// that failed (worker death) poisons the whole range: a partial merge
// would silently present a hole as an empty interval. part must already be
// sorted ascending (legs scan in key order).
func (ro *rangeOp) finish(e *Engine, part []Pair, st Status) {
	ro.mu.Lock()
	if st != StatusOK {
		ro.status = st
	}
	if part != nil {
		ro.parts = append(ro.parts, part)
	}
	ro.pending--
	last := ro.pending == 0
	ro.mu.Unlock()
	if !last {
		return
	}
	// Single completer past this point; the fields are ours alone.
	resp := Response{Status: ro.status}
	if ro.status == StatusOK {
		resp.Pairs = ro.merge()
		if eo := e.obs; eo != nil {
			eo.rangeLen.Record(uint64(len(resp.Pairs)))
		}
	}
	c, t := ro.c, ro.t
	ro.release()
	c.complete(t, resp)
}

// merge k-way merges the legs' ascending slices into one ascending result
// of at most limit pairs, in a buffer from resultPairs. Shards partition
// the key space (a key lives on exactly one shard), so no cross-part
// duplicates can occur.
func (ro *rangeOp) merge() []Pair {
	live := ro.live[:0]
	total := 0
	for _, p := range ro.parts {
		if len(p) > 0 {
			live = append(live, p)
			total += len(p)
		}
	}
	ro.live = live
	total = min(total, ro.limit)
	if total == 0 {
		return nil
	}
	out := resultPairs.get()
	if cap(out) < total {
		out = make([]Pair, 0, total)
	}
	for len(out) < total {
		best := 0
		for i, p := range live {
			if p[0].Key < live[best][0].Key {
				best = i
			}
		}
		out = append(out, live[best][0])
		if live[best] = live[best][1:]; len(live[best]) == 0 {
			live[best] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return out
}

// release recycles the legs' buffers and returns ro to rangeOps. No leg
// holds ro any more: each dropped its reference when it called finish.
func (ro *rangeOp) release() {
	for _, p := range ro.parts {
		legPairs.put(p)
	}
	clear(ro.parts)
	clear(ro.live[:cap(ro.live)])
	ro.parts, ro.live = ro.parts[:0], ro.live[:0]
	ro.c = nil
	rangeOps.Put(ro)
}

// submitRange validates and fans a Range out to every shard. The pending
// count starts at len(shards)+1: the +1 submission sentinel keeps the
// collector from completing while legs are still being enqueued, and its
// retirement (after the loop) also folds in any enqueue failures.
func (e *Engine) submitRange(req Request, c completer, t tag) error {
	if !e.ranging {
		// A typed answer, not an error: the request was well-formed, the
		// serving structure just cannot execute it (see StatusUnsupported).
		c.complete(t, Response{Status: StatusUnsupported})
		return nil
	}
	if req.KeyHi < req.Key || req.KeyHi >= ds.KeyLimit {
		c.complete(t, Response{Status: StatusBadRequest})
		return nil
	}
	// Admission: a range touches every shard, so any shedding shard sheds
	// the whole request — scans are exactly the load a backlogged shard
	// must refuse, pinning as they do its oldest epoch for their duration.
	for _, sh := range e.shards {
		if sh.shedding.Load() {
			sh.shed.Add(1)
			return ErrShedding
		}
	}
	limit := e.cfg.MaxRangeResults
	if req.Limit != 0 && int(req.Limit) < limit {
		limit = int(req.Limit)
	}
	ro := rangeOps.Get().(*rangeOp)
	ro.from, ro.to, ro.limit = req.Key, req.KeyHi, limit
	ro.pending, ro.status = len(e.shards)+1, StatusOK
	ro.c, ro.t = c, t
	failed := StatusOK
	for _, sh := range e.shards {
		if err := sh.q.push(request{req: req, rng: ro}); err != nil {
			// This leg will never run; account it here. Remaining shards
			// still get the request — the sentinel's failure status wins,
			// but accepted legs must execute (their queues own them now).
			failed = StatusBusy
			ro.finish(e, nil, StatusBusy)
		}
	}
	ro.finish(e, nil, failed) // retire the submission sentinel
	return nil
}

// legScan is a worker's reusable Range visitor. Its visit func is bound
// once per worker: a fresh closure per leg would escape through the
// ds.Ranger interface call and allocate, together with the slice it
// appends to.
type legScan struct {
	part  []Pair
	limit int
	visit func(k, v uint64) bool
}

func newLegScan() *legScan {
	ls := &legScan{}
	ls.visit = func(k, v uint64) bool {
		ls.part = append(ls.part, Pair{Key: k, Val: v})
		return len(ls.part) < ls.limit
	}
	return ls
}

// execRange runs one shard leg under the worker's leased tid: one
// ds.Ranger scan — a single StartOp/EndOp bracket, however many keys it
// visits — collecting at most limit pairs. The unreclaimed sample taken
// while the reservation is still notionally pinning (right after the scan)
// feeds the under-scan high-water mark, the end-to-end evidence for the
// paper's claim: under EBR a concurrent writer's garbage accumulates for
// the scan's whole duration; under the interval schemes it stays bounded.
func (e *Engine) execRange(sh *shard, tid int, r *request, ls *legScan) {
	ro := r.rng
	sh.rangeOps.Add(1)
	sh.activeScans.Add(1)
	var t0 uint64
	if e.obs != nil {
		t0 = obs.Now()
	}
	ls.part, ls.limit = legPairs.get(), ro.limit
	// The visitor receives values, not handles, so nothing escapes the
	// bracket — the ds-side Range implementations are held to that contract
	// by ibrlint's range-callback rule (derefguard + lifecycle).
	sh.m.(ds.Ranger).Range(tid, ro.from, ro.to, ls.visit)
	part := ls.part
	ls.part = nil
	sh.noteUnderScan(core.TotalUnreclaimed(sh.inst.Scheme(), e.tids))
	sh.activeScans.Add(-1)
	if eo := e.obs; eo != nil {
		d := obs.Now() - t0
		eo.opLat[latRange].Record(d)
		if r.req.TraceID != 0 {
			eo.opEvent(sh.idx, tid, r.req.TraceID, d)
		}
	}
	ro.finish(e, part, StatusOK)
}
