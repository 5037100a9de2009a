package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ibr/internal/ds"
)

func TestEngineBasicOps(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Shards: 4, WorkersPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if r, _ := eng.Do(OpGet, 1, 0); r.Status != StatusNotFound {
		t.Fatalf("Get(empty) = %v", r.Status)
	}
	if r, _ := eng.Do(OpPut, 1, 100); r.Status != StatusOK {
		t.Fatalf("Put = %v", r.Status)
	}
	if r, _ := eng.Do(OpPut, 1, 200); r.Status != StatusExists {
		t.Fatalf("second Put = %v", r.Status)
	}
	if r, _ := eng.Do(OpGet, 1, 0); r.Status != StatusOK || r.Val != 100 {
		t.Fatalf("Get = %v/%d", r.Status, r.Val)
	}
	if r, _ := eng.Do(OpDel, 1, 0); r.Status != StatusOK {
		t.Fatalf("Del = %v", r.Status)
	}
	if r, _ := eng.Do(OpDel, 1, 0); r.Status != StatusNotFound {
		t.Fatalf("second Del = %v", r.Status)
	}
	if r, _ := eng.Do(OpPing, 0, 7); r.Status != StatusOK || r.Val != 7 {
		t.Fatalf("Ping = %v/%d", r.Status, r.Val)
	}
	if r, _ := eng.Do(OpGet, ds.KeyLimit, 0); r.Status != StatusBadRequest {
		t.Fatalf("Get(KeyLimit) = %v, want BAD_REQUEST", r.Status)
	}
}

// TestEngineShardDistribution checks every shard sees traffic for a dense
// key range — i.e. the shard hash actually spreads the key space.
func TestEngineShardDistribution(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Shards: 8, WorkersPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4096; k++ {
		if _, err := eng.Do(OpPut, k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range eng.Stats() {
		if st.Ops < 256 { // E[ops] = 512 per shard; 256 is a loose floor
			t.Fatalf("shard %d got only %d of 4096 ops", i, st.Ops)
		}
	}
	eng.Close()
}

// TestEngineDrainLosesNothing is the shutdown/drain race test of the
// issue: submitters race Close, and every operation the engine accepted
// (Submit returned nil) must complete exactly once — none lost, none
// double-completed — even though Close lands mid-stream. Run with -race.
func TestEngineDrainLosesNothing(t *testing.T) {
	for round := 0; round < 8; round++ {
		eng, err := NewEngine(EngineConfig{
			Shards: 4, WorkersPerShard: 2, QueueDepth: 256,
			EpochFreq: 16, EmptyFreq: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		const submitters = 8
		var (
			accepted  atomic.Uint64
			completed atomic.Uint64
			rejected  atomic.Uint64
			wg        sync.WaitGroup
			release   = make(chan struct{})
		)
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				<-release
				for i := 0; ; i++ {
					key := uint64(s*100000 + i%512)
					op := OpPut
					if i%2 == 1 {
						op = OpDel
					}
					var fired atomic.Bool
					err := eng.Submit(op, key, key, func(Resp) {
						if !fired.CompareAndSwap(false, true) {
							t.Error("request completed twice")
						}
						completed.Add(1)
					})
					switch err {
					case nil:
						accepted.Add(1)
					case ErrBusy:
						rejected.Add(1)
					case ErrClosed:
						return
					default:
						t.Errorf("Submit: %v", err)
						return
					}
				}
			}(s)
		}
		close(release)
		// Let the submitters get going, then drain under them.
		for accepted.Load() < 1000 {
			runtime.Gosched()
		}
		eng.Close()
		wg.Wait()
		if completed.Load() != accepted.Load() {
			t.Fatalf("round %d: accepted %d ops but completed %d (rejected %d)",
				round, accepted.Load(), completed.Load(), rejected.Load())
		}
		// Close is idempotent and must not hang or re-drain.
		eng.Close()
	}
}

// TestEngineBusyBackpressure fills a tiny queue from a stalled shard and
// checks Submit surfaces ErrBusy rather than buffering without bound.
func TestEngineBusyBackpressure(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Shards: 1, WorkersPerShard: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Park the single worker on a request that blocks until we say so.
	gate := make(chan struct{})
	blocked := make(chan struct{})
	if err := eng.Submit(OpPing, 0, 0, func(Resp) { close(blocked); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-blocked // the worker is now inside a done callback, not popping
	sawBusy := false
	for i := 0; i < 64; i++ {
		err := eng.Submit(OpPing, uint64(i), 0, func(Resp) {})
		if err == ErrBusy {
			sawBusy = true
			break
		}
		if err != nil {
			t.Fatalf("unexpected error %v", err)
		}
	}
	close(gate)
	if !sawBusy {
		t.Fatal("queue of depth 4 accepted 64 requests without ErrBusy")
	}
}

// TestEngineStats checks the metrics snapshot exposes work and epoch
// movement for an epoch-based scheme.
func TestEngineStats(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Structure: "hashmap", Scheme: "tagibr",
		Shards: 2, WorkersPerShard: 1, EpochFreq: 4, EmptyFreq: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		eng.Do(OpPut, k, k)
		if k%2 == 0 {
			eng.Do(OpDel, k, 0)
		}
	}
	snap := eng.snapshot()
	if snap.Ops == 0 || snap.Live == 0 {
		t.Fatalf("snapshot shows no work: %+v", snap)
	}
	if snap.PerShard[0].Epoch == 0 || snap.PerShard[1].Epoch == 0 {
		t.Fatalf("epoch clock did not advance: %+v", snap.PerShard)
	}
	if got := fmt.Sprintf("%d", snap.Shards); got != "2" {
		t.Fatalf("shards = %s", got)
	}
	// A delete-heavy run with EmptyFreq 4 must have scanned retire lists and
	// freed blocks; the scan counters ride ShardStats into the snapshot.
	if snap.Scans == 0 || snap.ScanFreed == 0 {
		t.Fatalf("scan stats missing from snapshot: %+v", snap)
	}
	// Scanned counts conflict tests run, and one whole-bucket (or
	// whole-store) test frees a whole bucket, so freed may exceed examined —
	// but only through such wholesale frees.
	per := eng.Stats()
	examined := sum(per, func(s ShardStats) uint64 { return s.Scan.Scanned })
	freed := sum(per, func(s ShardStats) uint64 { return s.Scan.Freed })
	if bucketFrees := sum(per, func(s ShardStats) uint64 { return s.Scan.BucketFrees }); freed > examined && bucketFrees == 0 {
		t.Fatalf("freed %d > examined %d with no whole-bucket frees: a per-block test frees at most one block",
			freed, examined)
	}
	var perShardScans uint64
	for _, sh := range snap.PerShard {
		perShardScans += sh.Scans
	}
	if perShardScans != snap.Scans {
		t.Fatalf("per-shard scans %d do not sum to total %d", perShardScans, snap.Scans)
	}
	eng.Close()
}

// TestIdleEngineBacklogBounded: retire-triggered scans run after EndOp, so
// a worker never pins its own garbage. After a sequential Put/Del burst —
// one request in flight, so no peer reservation is up when a worker scans —
// every worker's backlog sits below its drain watermark, EmptyFreq, and the
// engine holds at most shards × workers × EmptyFreq unreclaimed blocks.
func TestIdleEngineBacklogBounded(t *testing.T) {
	const shards, workers, emptyFreq = 2, 2, 16
	for _, scheme := range []string{"tagibr", "tagibr-wcas", "2geibr", "he", "hp", "ebr", "debra"} {
		t.Run(scheme, func(t *testing.T) {
			eng, err := NewEngine(EngineConfig{
				Scheme: scheme, Shards: shards, WorkersPerShard: workers, EmptyFreq: emptyFreq,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			for k := uint64(0); k < 2000; k++ {
				if r, err := eng.DoContext(ctx, Request{Op: OpPut, Key: k, Val: k}); err != nil || r.Status != StatusOK {
					t.Fatalf("Put(%d) = %v, %v", k, r.Status, err)
				}
				if k%4 != 0 {
					if r, err := eng.DoContext(ctx, Request{Op: OpDel, Key: k}); err != nil || r.Status != StatusOK {
						t.Fatalf("Del(%d) = %v, %v", k, r.Status, err)
					}
				}
			}
			if got := unreclaimed(eng.Stats()); got > shards*workers*emptyFreq {
				t.Fatalf("idle engine holds %d unreclaimed blocks, want <= shards*workers*EmptyFreq = %d",
					got, shards*workers*emptyFreq)
			}
		})
	}
}

// TestTrimSpill checks the worker's batch-buffer recycling stays bounded: a
// modest batch is reused, a burst-sized one is dropped so its backing array
// is not pinned for the engine's lifetime.
func TestTrimSpill(t *testing.T) {
	small := make([]request, 0, maxSpillCap)
	if got := trimSpill(small); cap(got) != maxSpillCap {
		t.Fatalf("cap-%d buffer not recycled (cap %d)", maxSpillCap, cap(got))
	}
	big := make([]request, 0, maxSpillCap+1)
	if got := trimSpill(big); got != nil {
		t.Fatalf("cap-%d buffer recycled; want dropped", cap(big))
	}
}
