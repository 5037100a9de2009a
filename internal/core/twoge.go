package core

import "ibr/internal/mem"

// TwoGE is two-global-epochs IBR (Fig. 6, §3.3): TagIBR's interval
// reservation without any tag in (or near) the pointer. On each read the
// thread raises its upper endpoint to the *current global epoch* instead of
// the pointer's born-before value — a coarser bound (the target was alive
// now, hence born before now) that keeps pointers at native width and adds
// no write-side instrumentation at all.
//
// 2GEIBR trades precision for portability: its intervals grow faster than
// TagIBR's (every read under a new epoch widens them), but it needs no
// WCAS, no type-preserving allocator, and no extra CAS per write. The
// paper's results show it within noise of the other IBRs in time, with
// slightly larger space.
type TwoGE struct {
	base
}

// NewTwoGE builds a two-global-epochs IBR reclaimer.
func NewTwoGE(m Memory, o Options) *TwoGE {
	return &TwoGE{base: newBase("2geibr", m, o)}
}

// StartOp sets both endpoints to the current epoch.
func (s *TwoGE) StartOp(tid int) {
	s.enterOp(tid)
	e := s.clock.Now()
	s.res.At(tid).Set(e, e)
}

// EndOp withdraws the interval, then runs the scan the op's retirements
// made due (see base.exitOp).
func (s *TwoGE) EndOp(tid int) {
	s.res.At(tid).Clear()
	s.exitOp(tid, s.Drain)
}

// RestartOp renews the interval with a fresh start epoch (§4.3.1).
func (s *TwoGE) RestartOp(tid int) { s.StartOp(tid) }

// Alloc allocates, stamps the birth epoch, and advances the epoch every
// EpochFreq allocations (shared with TagIBR, Fig. 5 lines 30–36).
func (s *TwoGE) Alloc(tid int) mem.Handle { return s.allocEpochs(tid, s.Drain) }

// Retire stamps the retire epoch and appends to the retire list.
func (s *TwoGE) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// Read is the snapshot read of Fig. 6, in the publish-first form (see the
// package comment): if the current epoch is already covered by the
// published upper endpoint, a pointer loaded now points to a block born no
// later than that endpoint; otherwise raise the endpoint and retry. The
// fast path (epoch unchanged since the last read) performs no store.
func (s *TwoGE) Read(tid, idx int, p *Ptr) mem.Handle {
	r := s.res.At(tid)
	for {
		h := mem.Handle(p.bits.Load())
		e := s.clock.Now()
		if e <= r.Upper() {
			return h
		}
		r.SetUpper(e)
	}
}

// ReadRoot is Read.
func (s *TwoGE) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return s.Read(tid, idx, p) }

// Write is an uninstrumented store (Fig. 6: "write and CAS same as in
// default (no instrumentation)"), plus the traced-span publish hook.
func (s *TwoGE) Write(tid int, p *Ptr, h mem.Handle) {
	p.setRaw(h)
	if s.obs != nil {
		s.publishSpan(tid, h)
	}
}

// CompareAndSwap is an uninstrumented CAS.
func (s *TwoGE) CompareAndSwap(tid int, p *Ptr, old, new mem.Handle) bool {
	if p.bits.CompareAndSwap(uint64(old), uint64(new)) {
		if s.obs != nil {
			s.publishSpan(tid, new)
		}
		return true
	}
	return false
}

// Drain runs empty() (shared with TagIBR): free every block whose lifetime
// intersects no reserved interval, via the per-scan reservation summary.
func (s *TwoGE) Drain(tid int) { s.scanIntervals(tid) }

// Robust is true (Theorem 2).
func (s *TwoGE) Robust() bool { return true }
