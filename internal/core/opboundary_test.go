package core

import (
	"testing"

	"ibr/internal/mem"
)

// Retire-triggered scans run at the op boundary (base.exitOp): inside a
// StartOp/EndOp bracket a due scan waits for EndOp, where the thread's own
// reservation is already withdrawn. These tests pin that contract for every
// scanning scheme — all reclaimers but Hyaline, whose seal cadence is fixed.

func scanningSchemes() []string {
	var out []string
	for _, n := range reclaimers() {
		if n != "hyaline" {
			out = append(out, n)
		}
	}
	return out
}

// opState reads tid's bracket flags (tests only; same ownership rules as
// the scan paths).
func (b *base) opState(tid int) (inOp, drainDue bool) {
	return b.ts[tid].inOp, b.ts[tid].drainDue
}

func opStateOf(s Scheme, tid int) (inOp, drainDue bool) {
	return s.(interface{ opState(int) (bool, bool) }).opState(tid)
}

// TestOpBoundaryBoundsLoneBacklog: a lone tid whose every op reads four
// cells (protecting their targets), replaces them and retires the old
// targets. With no peer holding anything, each deferred scan frees the whole
// backlog, so after every EndOp the backlog is below the drain watermark,
// EmptyFreq. Scanning inside the op (Fig. 5 as printed) instead keeps
// whatever the op's own reservation covers — for the epoch and interval
// schemes, every block retired since the epoch last moved.
func TestOpBoundaryBoundsLoneBacklog(t *testing.T) {
	const emptyFreq = 10 // not a multiple of the 4 retirements per op
	for _, name := range scanningSchemes() {
		t.Run(name, func(t *testing.T) {
			pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: 1 << 12})
			s, err := New(name, pool, Options{Threads: 1, EpochFreq: 1000, EmptyFreq: emptyFreq})
			if err != nil {
				t.Fatal(err)
			}
			var cells [4]Ptr
			for op := 0; op < 400; op++ {
				s.StartOp(0)
				for i := range cells {
					old := s.ReadRoot(0, i, &cells[i])
					nh := s.Alloc(0)
					if nh.IsNil() {
						t.Fatalf("op %d: alloc failed", op)
					}
					s.Write(0, &cells[i], nh)
					if !old.IsNil() {
						s.Retire(0, old.Addr())
					}
				}
				s.EndOp(0)
				if got := s.Unreclaimed(0); got > emptyFreq {
					t.Fatalf("op %d: %d blocks unreclaimed after EndOp, want <= EmptyFreq (%d)", op, got, emptyFreq)
				}
			}
		})
	}
}

// TestRetireOutsideOpScansAtOnce: the deferral is confined to the bracket.
// Inside it (RestartOp keeps it open) a due scan waits for EndOp; outside
// any op the EmptyFreq'th retirement scans at once.
func TestRetireOutsideOpScansAtOnce(t *testing.T) {
	const emptyFreq = 8
	for _, name := range scanningSchemes() {
		t.Run(name, func(t *testing.T) {
			pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: 1 << 10})
			s, err := New(name, pool, Options{Threads: 1, EpochFreq: 1000, EmptyFreq: emptyFreq})
			if err != nil {
				t.Fatal(err)
			}
			s.StartOp(0)
			s.RestartOp(0)
			for i := 0; i < emptyFreq; i++ {
				s.Retire(0, s.Alloc(0))
			}
			if got := s.Unreclaimed(0); got != emptyFreq {
				t.Fatalf("in-op: %d unreclaimed after %d retirements, want the scan deferred to EndOp", got, emptyFreq)
			}
			if _, due := opStateOf(s, 0); !due {
				t.Fatal("in-op: watermark reached but no drain marked due")
			}
			s.EndOp(0)
			if got := s.Unreclaimed(0); got != 0 {
				t.Fatalf("EndOp: %d unreclaimed, want the deferred scan to free all", got)
			}
			for i := 0; i < emptyFreq; i++ {
				s.Retire(0, s.Alloc(0))
			}
			if got := s.Unreclaimed(0); got != 0 {
				t.Fatalf("out of op: %d unreclaimed after %d retirements, want an immediate scan", got, emptyFreq)
			}
		})
	}
}

// TestExhaustionDrainRunsInOp: an Alloc that finds the pool exhausted
// drains at once, inside the op — the thread needs the memory now, and the
// backlog retired in earlier epochs is not covered by its reservation.
func TestExhaustionDrainRunsInOp(t *testing.T) {
	const slots = 64
	for _, name := range scanningSchemes() {
		t.Run(name, func(t *testing.T) {
			pool := mem.New[tnode](mem.Options[tnode]{Threads: 1, MaxSlots: slots})
			s, err := New(name, pool, Options{Threads: 1, EpochFreq: 1 << 20, EmptyFreq: 1024})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < slots; i++ {
				h := s.Alloc(0)
				if h.IsNil() {
					t.Fatalf("alloc %d failed before exhaustion", i)
				}
				s.Retire(0, h)
			}
			epochOf(s).Advance() // the backlog now predates any new reservation
			s.StartOp(0)
			if h := s.Alloc(0); h.IsNil() {
				t.Fatal("in-op Alloc on an exhausted pool did not recover by draining")
			}
			if got := s.Unreclaimed(0); got >= slots {
				t.Fatalf("%d unreclaimed inside the op: the exhaustion drain was deferred", got)
			}
			s.EndOp(0)
		})
	}
}

// TestTransferLeavesOpFlags: the bracket flags belong to the tid's own
// goroutine. The cross-tid quarantine primitives — ClearReservation and
// AdoptRetired, run by another tid's goroutine — must not write them.
func TestTransferLeavesOpFlags(t *testing.T) {
	const emptyFreq = 4
	for _, name := range scanningSchemes() {
		t.Run(name, func(t *testing.T) {
			pool := mem.New[tnode](mem.Options[tnode]{Threads: 2, MaxSlots: 1 << 10})
			s, err := New(name, pool, Options{Threads: 2, EpochFreq: 1000, EmptyFreq: emptyFreq})
			if err != nil {
				t.Fatal(err)
			}
			s.StartOp(1)
			for i := 0; i < emptyFreq; i++ {
				s.Retire(1, s.Alloc(1))
			}
			if in, due := opStateOf(s, 1); !in || !due {
				t.Fatalf("staged tid 1: inOp=%v drainDue=%v, want both set", in, due)
			}
			ClearReservation(s, 1)
			if n := AdoptRetired(s, 1, 0); n != emptyFreq {
				t.Fatalf("adopted %d blocks, want %d", n, emptyFreq)
			}
			if in, due := opStateOf(s, 1); !in || !due {
				t.Fatalf("after transfer tid 1: inOp=%v drainDue=%v, want both untouched", in, due)
			}
			if in, due := opStateOf(s, 0); in || due {
				t.Fatalf("adopter tid 0: inOp=%v drainDue=%v, want both untouched", in, due)
			}
		})
	}
}
