package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ibr/internal/core"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes; it reports whether cond held.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// sum folds one counter over all shards.
func sum(stats []ShardStats, f func(ShardStats) uint64) uint64 {
	var t uint64
	for _, s := range stats {
		t += f(s)
	}
	return t
}

func unreclaimed(stats []ShardStats) int {
	var t int
	for _, s := range stats {
		t += s.Unreclaimed
	}
	return t
}

// remedyGate sequences a stall scenario through the remediator's test
// hook: parked closes when the remediator first sees a parked holder (the
// staller, whose reservation is published before it parks), and every
// quarantine is held back until open is set.
type remedyGate struct {
	once   sync.Once
	parked chan struct{}
	open   atomic.Bool
}

func newRemedyGate() *remedyGate { return &remedyGate{parked: make(chan struct{})} }

func (g *remedyGate) hook(shard, tid int) bool {
	g.once.Do(func() { close(g.parked) })
	return g.open.Load()
}

// waitParked blocks until the remediator has seen the staller parked.
func (g *remedyGate) waitParked(t *testing.T) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the remediator never saw the staller parked")
	}
}

// TestQuarantineDrainsStalledBacklog is the acceptance scenario: an
// injected staller pins reclamation for 30s (far beyond the test), churn
// builds an unreclaimed backlog behind it, and the remediator must
// quarantine the stalled tid and drain the backlog to near-baseline well
// within a second — WITHOUT the stall ever ending on its own. It runs
// under both pin mechanisms: ebr (a stuck epoch reservation the clear
// withdraws) and hyaline (a stuck active slot whose batch references the
// clear force-drops).
func TestQuarantineDrainsStalledBacklog(t *testing.T) {
	for _, scheme := range []string{"ebr", "hyaline"} {
		t.Run(scheme, func(t *testing.T) {
			gate := newRemedyGate()
			eng, err := NewEngine(EngineConfig{
				Scheme: scheme, Shards: 1, WorkersPerShard: 1,
				EpochFreq: 4, EmptyFreq: 4,
				Stalled: 1, StallFor: 30 * time.Second,
				QuarantineAfter: 50 * time.Millisecond,
				RemedyInterval:  10 * time.Millisecond,
				testRemedyHook:  gate.hook,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			// Once the staller has parked with its reservation published,
			// churn: every Del retires a node the pin keeps unreclaimable.
			// The gate holds quarantine until the backlog has been observed.
			gate.waitParked(t)
			churn := func(rounds int) {
				for i := 0; i < rounds; i++ {
					k := uint64(i % 512)
					if _, err := eng.Do(OpPut, k, k+1); err != nil {
						t.Fatal(err)
					}
					if _, err := eng.Do(OpDel, k, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			churn(2000)
			if got := unreclaimed(eng.Stats()); got == 0 {
				t.Fatal("stall did not pin a backlog; the scenario is vacuous")
			}
			gate.open.Store(true)

			if !waitFor(2*time.Second, func() bool {
				return sum(eng.Stats(), func(s ShardStats) uint64 { return s.Quarantines }) > 0
			}) {
				t.Fatal("remediator never quarantined the stalled tid")
			}
			// The stall is still "running" (StallFor is 30s); only the
			// quarantine can release the backlog. A little more traffic lets
			// cadence scans run post-clear, and the cleanup op itself drains
			// once.
			start := time.Now()
			ok := waitFor(time.Second, func() bool {
				churn(50)
				return unreclaimed(eng.Stats()) < 200
			})
			if !ok {
				t.Fatalf("backlog stuck at %d blocks %v after quarantine; want near-baseline without waiting out the stall",
					unreclaimed(eng.Stats()), time.Since(start))
			}
		})
	}
}

// TestQuarantineNeutralizesDEBRA runs the same acceptance scenario under
// the debra scheme, where the quarantine is not just a reservation clear
// but a real DEBRA+ neutralization: the remediator's ClearReservation must
// latch the staller's neutralize flag (signaled > 0) and the stalled
// backlog must drain while the stall keeps running — the lease watchdog
// standing in for DEBRA+'s POSIX signal.
func TestQuarantineNeutralizesDEBRA(t *testing.T) {
	gate := newRemedyGate()
	eng, err := NewEngine(EngineConfig{
		Scheme: "debra", Shards: 1, WorkersPerShard: 1,
		EpochFreq: 4, EmptyFreq: 4,
		Stalled: 1, StallFor: 30 * time.Second,
		QuarantineAfter: 50 * time.Millisecond,
		RemedyInterval:  10 * time.Millisecond,
		testRemedyHook:  gate.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	gate.waitParked(t) // the staller has parked and pinned
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			k := uint64(i % 512)
			if _, err := eng.Do(OpPut, k, k+1); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Do(OpDel, k, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(2000)
	if got := unreclaimed(eng.Stats()); got == 0 {
		t.Fatal("stall did not pin a backlog; the scenario is vacuous")
	}
	gate.open.Store(true)

	if !waitFor(2*time.Second, func() bool {
		return sum(eng.Stats(), func(s ShardStats) uint64 { return s.Quarantines }) > 0
	}) {
		t.Fatal("remediator never quarantined the stalled tid")
	}
	// The cleanup that neutralizes runs on the shard's one worker, queued
	// before this Ping: once the Ping is answered, the cleanup has run.
	if r, err := eng.DoContext(context.Background(), Request{Op: OpPing}); err != nil || r.Status != StatusOK {
		t.Fatalf("barrier Ping = %v, %v", r.Status, err)
	}
	d, ok := eng.shards[0].inst.Scheme().(*core.DEBRA)
	if !ok {
		t.Fatalf("shard scheme is %T, want *core.DEBRA", eng.shards[0].inst.Scheme())
	}
	if sig, _ := d.NeutralizeStats(); sig == 0 {
		t.Fatal("quarantine delivered no neutralization signal")
	}
	ok = waitFor(time.Second, func() bool {
		churn(50)
		return unreclaimed(eng.Stats()) < 200
	})
	if !ok {
		t.Fatalf("backlog stuck at %d blocks after neutralization; the stall never ended on its own",
			unreclaimed(eng.Stats()))
	}
}

// TestWorkerDeathReplacement: a panic inside the serving path must (1)
// answer the poisoned request with StatusInternal instead of hanging or
// crashing, (2) get the dead tid quarantined and its retired backlog
// adopted, (3) keep the shard serving via a replacement worker.
func TestWorkerDeathReplacement(t *testing.T) {
	const poison = uint64(7777)
	eng, err := NewEngine(EngineConfig{
		Scheme: "ebr", Shards: 1, WorkersPerShard: 1,
		EpochFreq: 4, EmptyFreq: 1 << 20, // never scan: the dead tid keeps its backlog
		QuarantineAfter: 50 * time.Millisecond,
		RemedyInterval:  5 * time.Millisecond,
		testExecHook: func(op Op, key uint64) {
			if key == poison {
				panic("injected worker fault")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Build a retire backlog on the doomed worker's tid.
	for i := uint64(0); i < 64; i++ {
		if _, err := eng.Do(OpPut, i, i); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Do(OpDel, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := eng.Do(OpGet, poison, 0)
	if err != nil {
		t.Fatalf("Submit of the poisoned request failed: %v", err)
	}
	if resp.Status != StatusInternal {
		t.Fatalf("poisoned request answered %v, want StatusInternal", resp.Status)
	}

	// The shard must come back: a replacement worker leases a spare tid and
	// serves, and the dead tid's backlog is adopted.
	if !waitFor(2*time.Second, func() bool {
		r, err := eng.Do(OpPut, 9999, 1)
		return err == nil && r.Status == StatusOK
	}) {
		t.Fatal("shard never resumed serving after the worker death")
	}
	st := eng.Stats()
	if got := sum(st, func(s ShardStats) uint64 { return s.Deaths }); got != 1 {
		t.Fatalf("Deaths = %d, want 1", got)
	}
	if !waitFor(2*time.Second, func() bool {
		st := eng.Stats()
		return sum(st, func(s ShardStats) uint64 { return s.Quarantines }) >= 1 &&
			sum(st, func(s ShardStats) uint64 { return s.Adopted }) > 0
	}) {
		st := eng.Stats()
		t.Fatalf("dead tid not cleaned up: quarantines=%d adopted=%d",
			sum(st, func(s ShardStats) uint64 { return s.Quarantines }),
			sum(st, func(s ShardStats) uint64 { return s.Adopted }))
	}
}

// TestSheddingAboveHardWatermark: with a staller pinning reclamation
// indefinitely and watermarks scaled down to a tiny pool, churn must push
// the shard over its hard cap and turn Submit into ErrShedding — admission
// control instead of unbounded backlog growth.
func TestSheddingAboveHardWatermark(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Scheme: "ebr", Shards: 1, WorkersPerShard: 1,
		EpochFreq: 4, EmptyFreq: 4,
		PoolSlots: 4096,
		Stalled:   1, StallFor: 30 * time.Second,
		QuarantineAfter: 10 * time.Minute, // never quarantine: shedding must act alone
		RemedyInterval:  5 * time.Millisecond,
		SoftWatermark:   0.02, HardWatermark: 0.05, // hard cap ≈ 204 blocks
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	time.Sleep(20 * time.Millisecond) // staller parks and pins
	var sawShedding bool
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		k := uint64(i % 1024)
		if _, err := eng.Do(OpPut, k, k+1); err != nil {
			if errors.Is(err, ErrShedding) {
				sawShedding = true
				break
			}
			t.Fatal(err)
		}
		if _, err := eng.Do(OpDel, k, 0); err != nil {
			if errors.Is(err, ErrShedding) {
				sawShedding = true
				break
			}
			t.Fatal(err)
		}
	}
	if !sawShedding {
		t.Fatalf("no ErrShedding despite %d unreclaimed blocks above a hard cap of ~204",
			unreclaimed(eng.Stats()))
	}
	if got := sum(eng.Stats(), func(s ShardStats) uint64 { return s.Shed }); got == 0 {
		t.Fatal("Shed counter did not move")
	}
}

// TestPoolExhaustionBecomesBusy: under the leak scheme a small pool runs
// dry; Puts must answer StatusBusy — typed backpressure — rather than
// panicking or misreporting StatusExists.
func TestPoolExhaustionBecomesBusy(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Scheme: "none", Shards: 1, WorkersPerShard: 1,
		PoolSlots: 256,
		// Keep admission out of the way: NoMM retires nothing, so the
		// watermarks never trip; this test is about the alloc path.
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var sawBusy bool
	for i := uint64(0); i < 1024; i++ {
		resp, err := eng.Do(OpPut, i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.Status {
		case StatusOK:
		case StatusBusy:
			sawBusy = true
		default:
			t.Fatalf("Put %d answered %v, want OK or BUSY", i, resp.Status)
		}
		if sawBusy {
			break
		}
	}
	if !sawBusy {
		t.Fatal("pool never exhausted: the scenario is vacuous")
	}
	if got := sum(eng.Stats(), func(s ShardStats) uint64 { return s.PoolExhausted }); got == 0 {
		t.Fatal("PoolExhausted counter did not move")
	}
	// And the engine is still alive: reads keep working on the full pool.
	if r, err := eng.Do(OpGet, 0, 0); err != nil || r.Status != StatusOK {
		t.Fatalf("Get after exhaustion = %v, %v; want OK", r, err)
	}
}

// TestStallerSurvivesQuarantine: after its tid is quarantined, the staller
// goroutine wakes at the end of its stall, finds the lease revoked, leases
// a fresh tid, and stalls again — the injected fault stays alive for the
// telemetry while the engine keeps remediating. StallFor is short here so
// the revoke-discover-re-lease cycle completes several times in-test.
func TestStallerSurvivesQuarantine(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Scheme: "ebr", Shards: 1, WorkersPerShard: 1,
		EpochFreq: 4, EmptyFreq: 4,
		Stalled: 1, StallFor: 150 * time.Millisecond,
		QuarantineAfter: 30 * time.Millisecond,
		RemedyInterval:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Two quarantines prove the cycle: pin → quarantine → re-lease → pin.
	if !waitFor(3*time.Second, func() bool {
		return sum(eng.Stats(), func(s ShardStats) uint64 { return s.Quarantines }) >= 2
	}) {
		t.Fatalf("quarantines = %d, want >= 2 (staller should re-lease and stall again)",
			sum(eng.Stats(), func(s ShardStats) uint64 { return s.Quarantines }))
	}
}
