package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ibr/internal/lincheck"
)

// startTestServer brings up an engine + server on a loopback port and
// returns the address plus a shutdown func.
func startTestServer(t *testing.T, cfg EngineConfig, scfg ServerConfig) (string, *Server) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

func TestServerEndToEnd(t *testing.T) {
	addr, _ := startTestServer(t,
		EngineConfig{Shards: 4, WorkersPerShard: 2},
		ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if r, err := cl.Do(OpPut, 5, 55); err != nil || r.Status != StatusOK {
		t.Fatalf("Put = %v, %v", r, err)
	}
	if r, err := cl.Do(OpGet, 5, 0); err != nil || r.Status != StatusOK || r.Val != 55 {
		t.Fatalf("Get = %v, %v", r, err)
	}
	if r, err := cl.Do(OpDel, 5, 0); err != nil || r.Status != StatusOK {
		t.Fatalf("Del = %v, %v", r, err)
	}
	if r, err := cl.Do(OpGet, 5, 0); err != nil || r.Status != StatusNotFound {
		t.Fatalf("Get after Del = %v, %v", r, err)
	}
}

// TestServerLinearizable records a concurrent GET/PUT/DEL history through
// real connections and checks it with internal/lincheck: the tid-lease
// layer must not reorder, lose, or double-apply operations even though
// requests from different connections interleave in the shard queues.
func TestServerLinearizable(t *testing.T) {
	addr, _ := startTestServer(t,
		EngineConfig{Shards: 4, WorkersPerShard: 2, EpochFreq: 16, EmptyFreq: 8},
		ServerConfig{})

	const (
		clients  = 4
		opsEach  = 120
		keySpace = 48 // ~10 events/key expected; far under lincheck's 64 cap
	)
	rec := lincheck.NewRecorder(clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(tid int, cl *Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid) + 1))
			for i := 0; i < opsEach; i++ {
				key := rng.Uint64() % keySpace
				var (
					kind lincheck.Kind
					op   Op
				)
				switch rng.Intn(4) {
				case 0:
					kind, op = lincheck.Insert, OpPut
				case 1:
					kind, op = lincheck.Remove, OpDel
				default:
					kind, op = lincheck.Get, OpGet
				}
				invoke := rec.Begin()
				resp, err := cl.Do(op, key, key*10+uint64(tid))
				if err != nil {
					t.Errorf("tid %d: %v", tid, err)
					return
				}
				var ok bool
				switch resp.Status {
				case StatusOK:
					ok = true
				case StatusNotFound, StatusExists:
					ok = false
				default:
					t.Errorf("tid %d: unexpected status %v", tid, resp.Status)
					return
				}
				rec.Record(tid, kind, key, ok, invoke)
			}
		}(c, cl)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	rep := lincheck.Check(rec.Events(), func(uint64) bool { return false })
	if err := rep.Err(); err != nil {
		t.Fatalf("%v (report: %+v)", err, rep)
	}
	if rep.EventsChecked == 0 {
		t.Fatal("lincheck verified no events")
	}
	t.Logf("lincheck: %d keys, %d events checked, %d inconclusive",
		rep.Keys, rep.EventsChecked, rep.Inconclusive)
}

// TestServerGracefulShutdown races in-flight traffic against Shutdown and
// checks the drain contract from the client's side: every Do call returns
// (a response or a connection error — never a hang), the server completes
// whatever it read, and the engine refuses work afterwards. Run with -race.
func TestServerGracefulShutdown(t *testing.T) {
	addr, srv := startTestServer(t,
		EngineConfig{Shards: 2, WorkersPerShard: 2, EpochFreq: 16, EmptyFreq: 8},
		ServerConfig{MaxInflight: 32})

	const clients = 4
	var (
		responses atomic.Uint64
		connErrs  atomic.Uint64
		wg        sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(cl *Client, slot int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(slot)))
				for i := 0; ; i++ {
					op := OpPut
					if i%2 == 0 {
						op = OpDel
					}
					r, err := cl.Do(op, rng.Uint64()%128, 1)
					if err != nil {
						connErrs.Add(1)
						return
					}
					responses.Add(1)
					if r.Status == StatusShutdown {
						return
					}
				}
			}(cl, c*4+g)
		}
	}
	time.Sleep(30 * time.Millisecond) // let traffic build
	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("clients hung across shutdown: drain lost an in-flight op")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if responses.Load() == 0 {
		t.Fatal("no responses before shutdown — test raced to nothing")
	}
	// The engine is fully drained: new work is refused, and a second
	// shutdown is a no-op.
	if err := srv.Engine().Submit(OpPing, 0, 0, func(Resp) {}); err != ErrClosed {
		t.Fatalf("Submit after shutdown = %v, want ErrClosed", err)
	}
	srv.Shutdown()
	t.Logf("shutdown drain: %d responses delivered, %d conns ended in error", responses.Load(), connErrs.Load())
}

// TestShutdownKickBetweenFrames pins the lost-wakeup interleaving behind
// the graceful-shutdown hang: the Shutdown kick lands after the reader has
// handled one frame and before it arms the read deadline for the next, so
// the kick's immediate deadline cannot wake it. The reader must still see
// the drain (and not block for the hour-long idle timeout) because it
// re-checks the draining flag after arming each deadline.
func TestShutdownKickBetweenFrames(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Shards: 1, WorkersPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, ServerConfig{IdleTimeout: time.Hour})
	var once sync.Once
	kicked := make(chan struct{})
	srv.betweenFrames = func() {
		once.Do(func() {
			srv.kick()
			close(kicked)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping before the kick: %v", err)
	}
	<-kicked
	// Wait for the connection handler without kicking again: a second
	// kick (Shutdown's own) would wake the reader and mask a lost first.
	handled := make(chan struct{})
	go func() { srv.connWG.Wait(); close(handled) }()
	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("connection handler hung: the reader missed a kick that landed between frames")
	}
	srv.Shutdown()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestServerRejectsGarbage checks a desynchronized stream is dropped and
// counted, and does not wedge the server for other clients.
func TestServerRejectsGarbage(t *testing.T) {
	addr, srv := startTestServer(t,
		EngineConfig{Shards: 1, WorkersPerShard: 1},
		ServerConfig{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")) // not our protocol
	buf := make([]byte, 64)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server answered a garbage stream instead of closing it")
	}
	raw.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ProtoDropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dropped connection not counted")
		}
		time.Sleep(time.Millisecond)
	}
	// A desynchronized stream is a dropped connection, not a rejected frame.
	if n := srv.ProtoRejected(); n != 0 {
		t.Fatalf("ProtoRejected = %d after a garbage stream, want 0", n)
	}
	// A well-behaved client still works.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsBadOp checks the other half of the protocol-error split:
// a well-framed request with an unknown op code is answered with
// StatusBadRequest on a connection that stays fully usable, and lands in
// ProtoRejected — not ProtoDropped.
func TestServerRejectsBadOp(t *testing.T) {
	addr, srv := startTestServer(t,
		EngineConfig{Shards: 1, WorkersPerShard: 1},
		ServerConfig{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(5 * time.Second))

	frame := appendRequest(nil, 7, Request{Op: Op(99), Key: 1, Val: 2})
	frame = appendRequest(frame, 8, Request{Op: OpPing, Val: 42}) // valid op on the same conn
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	got := map[uint32]Status{}
	for i := 0; i < 2; i++ {
		payload, err := readFrame(br, maxRespFrame, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		id, resp, perr := parseResponse(payload)
		if perr != nil {
			t.Fatalf("response %d: %v", i, perr)
		}
		got[id] = resp.Status
	}
	if got[7] != StatusBadRequest {
		t.Fatalf("bad-op response = %v, want BAD_REQUEST", got[7])
	}
	if got[8] != StatusOK {
		t.Fatalf("ping after bad op = %v, want OK (connection must survive)", got[8])
	}
	if n := srv.ProtoRejected(); n != 1 {
		t.Fatalf("ProtoRejected = %d, want 1", n)
	}
	if n := srv.ProtoDropped(); n != 0 {
		t.Fatalf("ProtoDropped = %d, want 0 (the connection was never dropped)", n)
	}
	if sum := srv.ProtoErrors(); sum != 1 {
		t.Fatalf("ProtoErrors = %d, want the split counters' sum 1", sum)
	}
}

// TestClientIDWrapSkipsPending pins the id-assignment bug: after nextID
// wraps uint32, the counter can land on an id whose request is still in
// flight; reusing it would overwrite that caller's channel in pending and
// strand it forever. Do must probe past pending ids instead.
func TestClientIDWrapSkipsPending(t *testing.T) {
	addr, _ := startTestServer(t,
		EngineConfig{Shards: 1, WorkersPerShard: 1},
		ServerConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Simulate the post-wrap collision: park a fake in-flight request on the
	// exact id the counter will hand out next.
	stranded := make(chan result, 1)
	cl.pmu.Lock()
	cl.nextID = 5
	cl.pending[5] = stranded
	cl.pmu.Unlock()

	for i := 0; i < 3; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}

	cl.pmu.Lock()
	ch, still := cl.pending[5]
	next := cl.nextID
	cl.pmu.Unlock()
	if !still || ch != stranded {
		t.Fatal("pending id 5 was overwritten by a wrapped id assignment")
	}
	if len(stranded) != 0 {
		t.Fatal("stranded channel received a response routed to the wrong caller")
	}
	if next != 9 { // 5 skipped; pings took 6, 7, 8
		t.Fatalf("nextID = %d, want 9 (id 5 skipped, three pings issued)", next)
	}

	// The literal wrap: the counter rolls through MaxUint32 to 0 without
	// colliding or losing responses.
	cl.pmu.Lock()
	cl.nextID = ^uint32(0)
	cl.pmu.Unlock()
	for i := 0; i < 3; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatalf("post-wrap ping %d: %v", i, err)
		}
	}
	cl.pmu.Lock()
	delete(cl.pending, 5)
	cl.pmu.Unlock()
}

// TestServerPipelining issues a burst of concurrent requests over one
// connection and checks ids match values back correctly.
func TestServerPipelining(t *testing.T) {
	addr, _ := startTestServer(t,
		EngineConfig{Shards: 2, WorkersPerShard: 2},
		ServerConfig{MaxInflight: 64})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				key := uint64(g*16 + i)
				if r, err := cl.Do(OpPut, key, key+1000); err != nil || r.Status != StatusOK {
					errs <- fmt.Errorf("Put %d: %v %v", key, r, err)
					return
				}
				if r, err := cl.Do(OpGet, key, 0); err != nil || r.Val != key+1000 {
					errs <- fmt.Errorf("Get %d: %v %v", key, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
