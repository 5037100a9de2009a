package core

import (
	"ibr/internal/mem"
	"ibr/internal/obs"
)

// HE is the hazard-eras scheme of Ramalhete and Correia (SPAA '17),
// described in §2.3 of the IBR paper: hazard pointers whose reservations
// are epoch ("era") values instead of addresses. Each block is tagged with
// the era it was born in and the era it was retired in; a protection slot
// holding era e protects every block whose [birth, retire] interval
// contains e. HE contributed the key observation IBR generalizes: block
// lifetimes can stand in for reachability.
//
// Like HP, HE is robust and needs per-read slot management (Unreserve);
// unlike HP, re-reads of pointers under an already-published era cost no
// fence.
type HE struct {
	base
	eras [][]hazSlot // 0 = unreserved (the clock starts at 1)
}

// NewHE builds a hazard-eras reclaimer with Options.Slots era slots per
// thread.
func NewHE(m Memory, o Options) *HE {
	o = o.withDefaults()
	s := &HE{base: newBase("he", m, o)}
	s.eras = make([][]hazSlot, o.Threads)
	for i := range s.eras {
		s.eras[i] = make([]hazSlot, o.Slots)
	}
	return s
}

// StartOp publishes nothing; protection is per-slot. It opens the bracket
// that defers retire-triggered scans.
func (s *HE) StartOp(tid int) { s.enterOp(tid) }

// EndOp clears all era slots, then runs the scan the op's retirements made
// due (see base.exitOp).
func (s *HE) EndOp(tid int) {
	s.clearEras(tid)
	s.exitOp(tid, s.Drain)
}

// RestartOp clears all era slots. The bracket stays open.
func (s *HE) RestartOp(tid int) { s.clearEras(tid) }

func (s *HE) clearEras(tid int) {
	for i := range s.eras[tid] {
		s.eras[tid][i].v.Store(0)
	}
}

// Alloc allocates and stamps the birth era, advancing the global era every
// EpochFreq allocations (HE and IBR share this cadence).
func (s *HE) Alloc(tid int) mem.Handle { return s.allocEpochs(tid, s.Drain) }

// Retire stamps the retire era and appends to the retire list.
func (s *HE) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// Read implements the hazard-era protocol: if the current global era is
// already published in the slot, a pointer loaded now is protected;
// otherwise publish the era and retry. On the fast path (era unchanged
// since the last read through this slot) there is no store at all.
func (s *HE) Read(tid, idx int, p *Ptr) mem.Handle {
	slot := &s.eras[tid][idx]
	prev := slot.v.Load()
	for {
		h := mem.Handle(p.bits.Load())
		cur := s.clock.Now()
		if cur == prev {
			return h
		}
		slot.v.Store(cur) // publish; seq-cst, so the re-read validates
		prev = cur
	}
}

// ReadRoot is Read.
func (s *HE) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return s.Read(tid, idx, p) }

// Write is an uninstrumented store (plus the traced-span publish hook).
func (s *HE) Write(tid int, p *Ptr, h mem.Handle) {
	p.setRaw(h)
	if s.obs != nil {
		s.publishSpan(tid, h)
	}
}

// CompareAndSwap is an uninstrumented CAS.
func (s *HE) CompareAndSwap(tid int, p *Ptr, old, new mem.Handle) bool {
	if p.bits.CompareAndSwap(uint64(old), uint64(new)) {
		if s.obs != nil {
			s.publishSpan(tid, new)
		}
		return true
	}
	return false
}

// Unreserve clears era slot idx.
func (s *HE) Unreserve(tid, idx int) { s.eras[tid][idx].v.Store(0) }

// Drain frees every retired block whose lifetime interval contains no
// reserved era. A reserved era e is the degenerate interval [e, e], so the
// scan reuses the interval summary: "some era in [birth, retire]" becomes
// "the largest era <= retire is >= birth", one binary search per block.
func (s *HE) Drain(tid int) {
	t0 := s.obs.PhaseStart()
	sum := &s.ts[tid].sum
	snap := sum.ivs[:0]
	for t := range s.eras {
		for i := range s.eras[t] {
			if v := s.eras[t][i].v.Load(); v != 0 {
				snap = append(snap, interval{v, v, int32(t)})
			}
		}
	}
	sum.build(snap)
	s.obs.PhaseEnd(obs.PhaseSummarize, t0)
	s.scanSummarized(tid, sum)
}

// Robust is true: a stalled thread reserves at most Slots eras, and each
// era can cover at most EpochFreq × Threads block births (Theorem 2's
// counting argument).
func (s *HE) Robust() bool { return true }
