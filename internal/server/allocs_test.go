package server

import (
	"bufio"
	"context"
	"testing"

	"ibr/internal/allocgate"
	"ibr/internal/obs"
)

// The allocation gates of the serving path. Each engine runs with the
// observability layer on, as ibrd ships it.

// loopReader replays one frame forever, so a reader over it never sees EOF.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.frame[r.off:])
		n += c
		r.off = (r.off + c) % len(r.frame)
	}
	return n, nil
}

// TestReadFrameAllocs: reading a request frame into the connection's
// reused buffer allocates nothing — the length prefix included.
func TestReadFrameAllocs(t *testing.T) {
	br := bufio.NewReader(&loopReader{frame: appendRequest(nil, 9, Request{Op: OpGet, Key: 5})})
	buf := make([]byte, maxReqFrame)
	allocgate.Check(t, 0, func() {
		if p, err := readFrame(br, maxReqFrame, buf); err != nil || len(p) != reqPayloadV2Len {
			t.Fatalf("readFrame = %d bytes, %v", len(p), err)
		}
	})
}

func newAllocEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	cfg.Obs = &obs.Options{}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestCompletionAllocs: a GET submitted and completed the way the wire
// path does it — the connection as its own completer, the response queued
// on its resps channel — allocates nothing end to end, worker included.
func TestCompletionAllocs(t *testing.T) {
	eng := newAllocEngine(t, EngineConfig{Shards: 1, WorkersPerShard: 1})
	if r, err := eng.DoContext(context.Background(), Request{Op: OpPut, Key: 5, Val: 50}); err != nil || r.Status != StatusOK {
		t.Fatalf("Put = %v, %v", r.Status, err)
	}
	cn := &conn{resps: make(chan wireResp, 1)}
	allocgate.Check(t, 0, func() {
		cn.outstanding.Add(1)
		if err := eng.submit(Request{Op: OpGet, Key: 5}, cn, tag{id: 7}); err != nil {
			t.Fatal(err)
		}
		if wr := <-cn.resps; wr.t.id != 7 || wr.r.Status != StatusOK || wr.r.Val != 50 {
			t.Fatalf("GET completed as %+v", wr)
		}
	})
}

// TestDoContextAllocs: DoContext's completion is pooled, so a synchronous
// GET allocates nothing either.
func TestDoContextAllocs(t *testing.T) {
	eng := newAllocEngine(t, EngineConfig{Shards: 1, WorkersPerShard: 1})
	ctx := context.Background()
	allocgate.Check(t, 0, func() {
		if r, err := eng.DoContext(ctx, Request{Op: OpGet, Key: 5}); err != nil || r.Status != StatusNotFound {
			t.Fatalf("Get = %v, %v", r.Status, err)
		}
	})
}

// TestRangeAllocs: once warm, a RANGE — one leg per shard plus the merge,
// completed through a connection and recycled as its writer does after
// encoding — allocates at most once.
func TestRangeAllocs(t *testing.T) {
	eng := newAllocEngine(t, EngineConfig{Structure: "skiplist", Shards: 4, WorkersPerShard: 1})
	for k := uint64(0); k < 512; k++ {
		if r, err := eng.DoContext(context.Background(), Request{Op: OpPut, Key: k, Val: k}); err != nil || r.Status != StatusOK {
			t.Fatalf("Put(%d) = %v, %v", k, r.Status, err)
		}
	}
	cn := &conn{resps: make(chan wireResp, 1)}
	allocgate.Check(t, 1, func() {
		cn.outstanding.Add(1)
		if err := eng.submit(Request{Op: OpRange, Key: 100, KeyHi: 355}, cn, tag{id: 1}); err != nil {
			t.Fatal(err)
		}
		wr := <-cn.resps
		if wr.r.Status != StatusOK || len(wr.r.Pairs) != 256 || wr.r.Pairs[0].Key != 100 {
			t.Fatalf("RANGE = %v with %d pairs", wr.r.Status, len(wr.r.Pairs))
		}
		resultPairs.put(wr.r.Pairs)
	})
}

// TestClientDoContextAllocs: a GET over loopback through Client.DoContext,
// client and server in one process. The result channel is pooled, so the
// round trip allocates nothing.
func TestClientDoContextAllocs(t *testing.T) {
	addr, _ := startTestServer(t, EngineConfig{Shards: 1, WorkersPerShard: 1, Obs: &obs.Options{}}, ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if r, err := cl.Put(ctx, 5, 50, 0); err != nil || r.Status != StatusOK {
		t.Fatalf("Put = %v, %v", r.Status, err)
	}
	allocgate.Check(t, 0, func() {
		if r, err := cl.Get(ctx, 5); err != nil || r.Status != StatusOK || r.Val != 50 {
			t.Fatalf("Get = %v/%d, %v", r.Status, r.Val, err)
		}
	})
}
