package core

import "ibr/internal/mem"

// POIBR is persistent-object IBR, the paper's simplest scheme (Fig. 4,
// §3.1). It applies only to persistent data structures — all pointers but
// the root immutable — such as the Treiber stack or the Bonsai tree. A
// thread reserves the single epoch in which it reads the root; because
// every block reachable from that root was alive in that epoch, the
// reservation's intersection with each block's [birth, retire] interval
// protects the whole reachable snapshot.
//
// Only the root read is instrumented (a snapshot loop, like setting one
// hazard pointer); every interior read is a plain load. This is the
// cheapest robust scheme in the paper, bought by the immutability
// restriction.
type POIBR struct {
	base
}

// NewPOIBR builds a persistent-object IBR reclaimer.
func NewPOIBR(m Memory, o Options) *POIBR {
	return &POIBR{base: newBase("poibr", m, o)}
}

// StartOp posts the current epoch (Fig. 4 line 22). ReadRoot will re-post;
// this initial reservation covers allocations made before the root read.
func (s *POIBR) StartOp(tid int) {
	s.enterOp(tid)
	e := s.clock.Now()
	s.res.At(tid).Set(e, e)
}

// EndOp withdraws the reservation (Fig. 4 line 24), then runs the scan the
// op's retirements made due (see base.exitOp).
func (s *POIBR) EndOp(tid int) {
	s.res.At(tid).Clear()
	s.exitOp(tid, s.Drain)
}

// RestartOp renews the reservation; the operation must re-read the root.
func (s *POIBR) RestartOp(tid int) { s.StartOp(tid) }

// Alloc allocates, stamps the birth epoch, and advances the epoch every
// EpochFreq allocations (Fig. 4 lines 9–15).
func (s *POIBR) Alloc(tid int) mem.Handle { return s.allocEpochs(tid, s.Drain) }

// Retire stamps the retire epoch and appends to the retire list (Fig. 4
// lines 16–20).
func (s *POIBR) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// Read is a plain load: interior pointers of a persistent structure are
// immutable, so the root reservation already covers their targets.
func (s *POIBR) Read(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// ReadRoot is the snapshot read of Fig. 4 lines 25–30: publish the epoch,
// read the root, and validate that the epoch did not change, guaranteeing
// the root's target was alive in the reserved epoch.
func (s *POIBR) ReadRoot(tid, idx int, p *Ptr) mem.Handle {
	r := s.res.At(tid)
	for {
		e := s.clock.Now()
		r.Set(e, e)
		h := mem.Handle(p.bits.Load())
		if s.clock.Now() == e {
			return h
		}
	}
}

// Write is an uninstrumented store (plus the traced-span publish hook).
func (s *POIBR) Write(tid int, p *Ptr, h mem.Handle) {
	p.setRaw(h)
	if s.obs != nil {
		s.publishSpan(tid, h)
	}
}

// CompareAndSwap is an uninstrumented CAS.
func (s *POIBR) CompareAndSwap(tid int, p *Ptr, old, new mem.Handle) bool {
	if p.bits.CompareAndSwap(uint64(old), uint64(new)) {
		if s.obs != nil {
			s.publishSpan(tid, new)
		}
		return true
	}
	return false
}

// Drain runs Fig. 4's empty(): free every block whose lifetime interval
// contains no reserved epoch, via the per-scan reservation summary.
func (s *POIBR) Drain(tid int) { s.scanIntervals(tid) }

// Robust is true (Theorem 2).
func (s *POIBR) Robust() bool { return true }
