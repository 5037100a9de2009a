package core

import (
	"sync/atomic"

	"ibr/internal/mem"
)

// DEBRA is a neutralization-based EBR in the style of Brown's DEBRA+
// ("Reclaiming memory for lock-free data structures: there has to be a
// better way"; see PAPERS.md). The data path is exactly EBR — reserve the
// epoch at StartOp, uninstrumented reads and writes, limbo-bag rotation on
// retire — so it keeps EBR's speed. The difference is what happens when a
// thread stalls: instead of waiting for the stalled reservation (EBR) or
// paying per-access instrumentation to ignore it (the IBR family), DEBRA+
// *neutralizes* the thread — forcibly ends its operation from outside and
// adopts its limbo bags — and the neutralized thread detects the signal and
// restarts its operation rather than touching memory that may since have
// been freed.
//
// DEBRA+ delivers the neutralization with a POSIX signal, whose handler
// runs a sigsetjmp/siglongjmp restart. Go offers no safe analogue, but this
// repository already has the machinery the signal stands in for: the
// serving layer's lease/quarantine protocol detects a stalled or dead tid
// (parked-in-stall or failed heartbeat — evidence the goroutine is not
// mid-dereference), then calls ClearReservation + AdoptRetired. DEBRA's
// ClearReservation override is the signal handler: it clears the epoch
// reservation AND latches a per-tid neutralized flag. The StartOp
// neutralize-check is the sigsetjmp site: the next operation on that tid
// consumes the flag before publishing a fresh reservation, so the revoked
// thread resumes only at an operation boundary with a new epoch — it can
// never carry a pointer read under the revoked reservation across the
// neutralization, which is the safety argument spelled out in DESIGN.md §8.
//
// Limbo bags: DEBRA segregates retired nodes into per-epoch bags and frees
// whole bags once their epoch is safely behind every reservation. Here the
// single retire list ordered by retire epoch IS that rotation — each run of
// equal retire epochs is one bag, rotation is the epoch advance inside the
// shared retire helper, and the prefix scan (free everything retired before
// the minimum reservation) frees exactly the sequence of expired bags
// without examining the live ones. BagRotations counts the boundaries for
// the telemetry.
//
// Robust() is false by the paper's own accounting: neutralization needs an
// external stall detector (the signal there, the lease watchdog here), so
// plain DEBRA — the scheme alone, no serving layer — is EBR and inherits
// its unbounded worst case. The chaos suite demonstrates the recovered
// bound end to end: a quarantined DEBRA staller's backlog drains to zero
// while the stall is still running.
type DEBRA struct {
	base
	neut []neutFlag
	bags []bagState
	// signaled counts ClearReservation neutralizations delivered; observed
	// counts those consumed by a later StartOp on the same tid. observed ≤
	// signaled always; they converge as neutralized tids are re-leased.
	signaled atomic.Uint64
	observed atomic.Uint64
}

// neutFlag is one tid's neutralization latch, padded so the watchdog
// writing one tid's flag never invalidates a neighbour's StartOp line.
type neutFlag struct {
	_ [64]byte
	v atomic.Bool
	_ [63]byte
}

// bagState tracks tid's current limbo-bag epoch to count rotations. Only
// tid's own goroutine touches it (Retire path), hence no atomics.
type bagState struct {
	_         [64]byte
	cur       uint64 // retire epoch of the open bag; 0 = none yet
	rotations uint64
	_         [48]byte
}

// NewDEBRA builds a neutralization-based epoch reclaimer.
func NewDEBRA(m Memory, o Options) *DEBRA {
	o = o.withDefaults()
	return &DEBRA{
		base: newBase("debra", m, o),
		neut: make([]neutFlag, o.Threads),
		bags: make([]bagState, o.Threads),
	}
}

// StartOp is EBR's reservation post with the neutralize-check in front:
// consume a pending neutralization before publishing the new epoch. A
// neutralized thread therefore restarts cleanly — its old reservation is
// already cleared, any pointers it read under it are dead to it, and the
// fresh epoch protects everything the restarted operation will read.
func (s *DEBRA) StartOp(tid int) {
	if s.neut[tid].v.Swap(false) {
		s.observed.Add(1)
	}
	s.enterOp(tid)
	e := s.clock.Now()
	s.res.At(tid).Set(e, e)
}

// EndOp clears the reservation, then runs the scan the op's retirements
// made due (see base.exitOp).
func (s *DEBRA) EndOp(tid int) {
	s.res.At(tid).Clear()
	s.exitOp(tid, s.Drain)
}

// RestartOp renews the reservation (and, like StartOp, consumes a pending
// neutralization — a restart is an operation boundary).
func (s *DEBRA) RestartOp(tid int) { s.StartOp(tid) }

// Neutralized reports whether tid has a delivered-but-unconsumed
// neutralization pending.
func (s *DEBRA) Neutralized(tid int) bool { return s.neut[tid].v.Load() }

// NeutralizeStats returns (signaled, observed): neutralizations delivered
// by ClearReservation and those consumed by a subsequent StartOp.
func (s *DEBRA) NeutralizeStats() (signaled, observed uint64) {
	return s.signaled.Load(), s.observed.Load()
}

// BagRotations returns the number of limbo-bag boundaries crossed: retires
// that opened a new epoch's bag. It is the telemetry face of the rotation —
// the reclamation itself rides the ordered retire list's prefix scans.
func (s *DEBRA) BagRotations() uint64 {
	var n uint64
	for i := range s.bags {
		n += s.bags[i].rotations
	}
	return n
}

// Alloc allocates without epoch stamping: like EBR, DEBRA keeps no birth
// epochs (the reservation covers everything reachable in the operation).
func (s *DEBRA) Alloc(tid int) mem.Handle { return s.allocPlain(tid, s.Drain) }

// Retire drops the block into tid's current limbo bag: the shared retire
// helper stamps the retire epoch and appends in epoch order, so the bag is
// the maximal run of equal stamps; a stamp differing from the open bag's is
// a rotation.
func (s *DEBRA) Retire(tid int, h mem.Handle) {
	b := &s.bags[tid]
	if e := s.clock.Now(); e != b.cur {
		if b.cur != 0 {
			b.rotations++
		}
		b.cur = e
	}
	s.retire(tid, h, s.Drain)
}

// Read is an uninstrumented load, exactly EBR: the epoch reservation (or,
// after neutralization, the StartOp restart) is the whole protocol.
func (s *DEBRA) Read(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// ReadRoot is Read.
func (s *DEBRA) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return p.Raw() }

// Write is an uninstrumented store (plus the traced-span publish hook).
func (s *DEBRA) Write(tid int, p *Ptr, h mem.Handle) {
	p.setRaw(h)
	if s.obs != nil {
		s.publishSpan(tid, h)
	}
}

// CompareAndSwap is an uninstrumented CAS.
func (s *DEBRA) CompareAndSwap(tid int, p *Ptr, old, new mem.Handle) bool {
	if p.bits.CompareAndSwap(uint64(old), uint64(new)) {
		if s.obs != nil {
			s.publishSpan(tid, new)
		}
		return true
	}
	return false
}

// Drain frees the expired limbo bags: every block retired strictly before
// the minimum reservation. The bags are consecutive runs of the ordered
// retire list, so the prefix scan frees whole bags and stops at the first
// one still covered — O(freed+1), never a re-walk of the backlog.
func (s *DEBRA) Drain(tid int) {
	s.scanRetiredBefore(tid, s.res.MinLower())
}

// Robust is false for the scheme in isolation: neutralization requires an
// external stall detector. Paired with the serving layer's lease watchdog
// the bound is recovered operationally — see the resilience and chaos
// suites.
func (s *DEBRA) Robust() bool { return false }

// ClearReservation is the neutralization signal: clear tid's reservation
// so reclamation stops waiting on it, and latch the flag the next StartOp
// on that tid will consume. The caller (the quarantine path) must hold
// evidence the tid is not mid-operation on a CPU — parked in a stall or
// heartbeat-dead — which is the same precondition DEBRA+ discharges with
// the signal handler's synchronous restart.
func (s *DEBRA) ClearReservation(tid int) {
	s.neut[tid].v.Store(true)
	s.signaled.Add(1)
	s.base.ClearReservation(tid)
}
