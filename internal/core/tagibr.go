package core

import "ibr/internal/mem"

// TagVariant selects one of the four TagIBR implementations of §3.2.
type TagVariant int

const (
	// TagCAS is the portable default of Fig. 5: a separate, monotonically
	// increasing born_before word per pointer, raised with compare-and-swap
	// before each write. Doubles pointer size; write/CAS are lock free.
	TagCAS TagVariant = iota
	// TagFAA raises born_before with fetch-and-add instead of CAS
	// (§3.2.1): wait-free writes, O(n) completion under contention, at the
	// cost of extra "slack" (over-approximated born_before) when racing.
	TagFAA
	// TagWCAS updates born_before and the pointer in one atomic word
	// (§3.2.1 "wide CAS"): normal-width here because the birth epoch is
	// packed into the handle's high 24 bits (DESIGN.md substitution #3).
	// Precise birth epochs, no slack, wait-free writes.
	TagWCAS
	// TagTPA stores no epoch in the pointer at all: the reader fetches the
	// birth epoch from the block header, which is safe because the
	// allocator is type-preserving (§3.2.1). No per-pointer space, no extra
	// CAS, wait-free writes.
	TagTPA
)

func (v TagVariant) String() string {
	switch v {
	case TagCAS:
		return "tagibr"
	case TagFAA:
		return "tagibr-faa"
	case TagWCAS:
		return "tagibr-wcas"
	case TagTPA:
		return "tagibr-tpa"
	}
	return "tagibr-?"
}

// TagIBR is tagged-pointer interval-based reclamation (Fig. 5, §3.2), the
// paper's general-purpose scheme: applicable to arbitrary nonblocking
// structures. Each thread reserves an epoch interval [lower, upper]; lower
// is pinned at start_op, and upper is raised on reads to cover the
// born-before tag of every pointer followed. A retired block is freed once
// no thread's interval intersects its [birth, retire] lifetime.
//
// Compared to hazard pointers, TagIBR needs no per-slot bookkeeping and no
// unreserve; compared to EBR, a stalled thread reserves only the blocks
// born up to its (frozen) upper endpoint — a bounded set (Theorem 2).
type TagIBR struct {
	base
	variant TagVariant
}

// NewTagIBR builds a TagIBR reclaimer of the given variant.
func NewTagIBR(m Memory, o Options, v TagVariant) *TagIBR {
	return &TagIBR{base: newBase(v.String(), m, o), variant: v}
}

// StartOp sets both interval endpoints to the current epoch (Fig. 5
// line 43).
func (s *TagIBR) StartOp(tid int) {
	s.enterOp(tid)
	e := s.clock.Now()
	s.res.At(tid).Set(e, e)
}

// EndOp withdraws the interval (Fig. 5 line 45), then runs the scan the
// op's retirements made due (see base.exitOp).
func (s *TagIBR) EndOp(tid int) {
	s.res.At(tid).Clear()
	s.exitOp(tid, s.Drain)
}

// RestartOp renews the interval with a fresh start epoch — the §4.3.1
// remedy that bounds the reservation of a starving thread.
func (s *TagIBR) RestartOp(tid int) { s.StartOp(tid) }

// Alloc allocates, stamps the birth epoch, and advances the epoch every
// EpochFreq allocations (Fig. 5 lines 30–36). Under TagWCAS it also checks
// that the epoch still fits the 24-bit packed field.
func (s *TagIBR) Alloc(tid int) mem.Handle {
	h := s.allocEpochs(tid, s.Drain)
	if s.variant == TagWCAS && !h.IsNil() {
		mem.CheckEpochRange(s.mem.Birth(h))
	}
	return h
}

// Retire stamps the retire epoch and appends to the retire list (Fig. 5
// lines 37–41).
func (s *TagIBR) Retire(tid int, h mem.Handle) { s.retire(tid, h, s.Drain) }

// birthOf returns the born-before value to install for a handle about to be
// written: its birth epoch, or 0 for nil (protects nothing).
func (s *TagIBR) birthOf(h mem.Handle) uint64 {
	if h.IsNil() {
		return 0
	}
	return s.mem.Birth(h)
}

// raiseBorn makes born_before(p) >= e, preserving monotonicity (Fig. 5
// protected_write/protected_CAS lines 7–9 and 12–14).
func (s *TagIBR) raiseBorn(p *Ptr, e uint64) {
	if s.variant == TagFAA {
		// FAA variant: add the difference; overshoot under races is
		// harmless slack (§3.2.1).
		if bb := p.born.Load(); e > bb {
			p.born.Add(e - bb)
		}
		return
	}
	for {
		bb := p.born.Load()
		if e <= bb || p.born.CompareAndSwap(bb, e) {
			return
		}
	}
}

// pack attaches the precise birth epoch to a handle's packed field (WCAS
// variant only). It is idempotent: re-packing a previously read value
// yields the same word, so data-structure equality tests stay meaningful.
func (s *TagIBR) pack(h mem.Handle) mem.Handle {
	if h.IsNil() {
		return h
	}
	return h.WithEpoch(s.mem.Birth(h))
}

// Read is the protected load. See the package comment for why the
// reservation is published before the load that is trusted, rather than
// after as in the literal Fig. 5 pseudocode.
func (s *TagIBR) Read(tid, idx int, p *Ptr) mem.Handle {
	r := s.res.At(tid)
	switch s.variant {
	case TagWCAS:
		// born_before rides in the same word as the pointer: one load is a
		// consistent snapshot.
		for {
			h := mem.Handle(p.bits.Load())
			if bb := h.Epoch(); bb <= r.Upper() {
				return h
			} else {
				r.SetUpper(bb)
			}
		}
	case TagTPA:
		// The tag lives in the block header. A handle may dangle between
		// the pointer load and the header read; the type-preserving
		// allocator makes that read well-defined, and the re-validation of
		// both the pointer and the birth field (the paper's "double-check")
		// rejects any block recycled meanwhile.
		for {
			h := mem.Handle(p.bits.Load())
			if h.IsNil() {
				return h
			}
			bb := s.mem.Birth(h.Addr())
			if bb <= r.Upper() {
				if mem.Handle(p.bits.Load()) == h && s.mem.Birth(h.Addr()) == bb {
					return h
				}
				continue
			}
			r.SetUpper(bb)
		}
	default: // TagCAS, TagFAA: separate born_before word
		for {
			h := mem.Handle(p.bits.Load())
			bb := p.born.Load() // >= birth of h's target (monotone, raised pre-store)
			if bb <= r.Upper() {
				return h
			}
			r.SetUpper(bb)
		}
	}
}

// ReadRoot is Read.
func (s *TagIBR) ReadRoot(tid, idx int, p *Ptr) mem.Handle { return s.Read(tid, idx, p) }

// Write is Fig. 5's protected_write: raise born_before, then store. Under
// WCAS the two updates are one store of the packed word.
func (s *TagIBR) Write(tid int, p *Ptr, h mem.Handle) {
	if s.variant == TagWCAS {
		p.setRaw(s.pack(h))
		if s.obs != nil {
			s.publishSpan(tid, h)
		}
		return
	}
	if s.variant != TagTPA {
		s.raiseBorn(p, s.birthOf(h))
	}
	p.setRaw(h)
	if s.obs != nil {
		s.publishSpan(tid, h)
	}
}

// CompareAndSwap is Fig. 5's protected_CAS: raise born_before for the new
// value, then CAS the pointer word. A failed pointer CAS after a successful
// raise leaves only harmless slack.
func (s *TagIBR) CompareAndSwap(tid int, p *Ptr, old, new mem.Handle) bool {
	var ok bool
	if s.variant == TagWCAS {
		ok = p.bits.CompareAndSwap(uint64(s.pack(old)), uint64(s.pack(new)))
	} else {
		if s.variant != TagTPA {
			s.raiseBorn(p, s.birthOf(new))
		}
		ok = p.bits.CompareAndSwap(uint64(old), uint64(new))
	}
	if ok && s.obs != nil {
		s.publishSpan(tid, new)
	}
	return ok
}

// Drain runs Fig. 5's empty(): free every block whose lifetime intersects
// no reserved interval, via the per-scan reservation summary.
func (s *TagIBR) Drain(tid int) { s.scanIntervals(tid) }

// Robust is true (Theorem 2): a stalled thread's frozen interval can cover
// only blocks born at or before its upper endpoint.
func (s *TagIBR) Robust() bool { return true }
