package core

import (
	"ibr/internal/mem"
)

// EBR is epoch-based reclamation, the pseudocode of Fig. 2 of the paper: a
// thread reserves the global epoch at start_op, implicitly protecting every
// block not retired before that epoch. It is the fastest scheme and the
// usability baseline IBR matches — but it is not robust: one stalled thread
// pins every block retired at or after its start epoch, without bound.
type EBR struct {
	base
}

// NewEBR builds an epoch-based reclaimer.
func NewEBR(m Memory, o Options) *EBR {
	return &EBR{base: newBase("ebr", m, o)}
}

// StartOp posts the current epoch as the thread's reservation (Fig. 2
// line 21).
func (s *EBR) StartOp(tid int) {
	s.enterOp(tid)
	e := s.clock.Now()
	s.res.At(tid).Set(e, e)
}

// EndOp clears the reservation to MAX (Fig. 2 line 23), then runs the scan
// the op's retirements made due (see base.exitOp).
func (s *EBR) EndOp(tid int) {
	s.res.At(tid).Clear()
	s.exitOp(tid, s.Drain)
}

// RestartOp renews the reservation with the current epoch.
func (s *EBR) RestartOp(tid int) { s.StartOp(tid) }

// Alloc allocates a block. Fig. 2's EBR advances the epoch in retire, not
// alloc, and keeps no birth epochs; Alloc is therefore uninstrumented.
func (s *EBR) Alloc(tid int) mem.Handle { return s.allocPlain(tid, s.Drain) }

// Retire stamps the retire epoch, appends to the thread-local list, and —
// per Fig. 2 lines 15–19 — advances the global epoch every EpochFreq
// retirements and scans every EmptyFreq retirements (both inside the
// shared retire helper).
func (s *EBR) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// Read is an uninstrumented load: EBR's reservation already covers every
// block the operation can reach. This is why EBR is the fast end of the
// spectrum — no per-read work at all.
func (s *EBR) Read(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// ReadRoot is Read.
func (s *EBR) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// Write is an uninstrumented store (plus the traced-span publish hook).
func (s *EBR) Write(tid int, p *Ptr, h mem.Handle) {
	p.setRaw(h)
	if s.obs != nil {
		s.publishSpan(tid, h)
	}
}

// CompareAndSwap is an uninstrumented CAS.
func (s *EBR) CompareAndSwap(tid int, p *Ptr, old, new mem.Handle) bool {
	if p.bits.CompareAndSwap(uint64(old), uint64(new)) {
		if s.obs != nil {
			s.publishSpan(tid, new)
		}
		return true
	}
	return false
}

// Drain runs Fig. 2's empty(): free every block retired strictly before
// the earliest reserved epoch. The freeable blocks form a prefix of the
// retire list (it is appended in retire-epoch order), so the scan stops at
// the first still-reserved block instead of re-walking the backlog; when no
// thread is in an operation (MinLower == None) everything is freed.
func (s *EBR) Drain(tid int) {
	s.scanRetiredBefore(tid, s.res.MinLower())
}

// Robust is false: this is the defining weakness of EBR (§1, §2.2).
func (s *EBR) Robust() bool { return false }
