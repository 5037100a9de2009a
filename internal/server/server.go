package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ServerConfig tunes the network front end.
type ServerConfig struct {
	// MaxInflight caps the number of pipelined requests a single
	// connection may have outstanding (default 128). The cap is what makes
	// completion delivery non-blocking: the response channel has exactly
	// MaxInflight slots, so a shard worker completing a request can never
	// block on a slow or dead connection.
	MaxInflight int
	// IdleTimeout closes a connection that sends no frame for this long
	// (default 5m). It doubles as the shutdown poll interval bound: a
	// draining server is never stuck behind a silent peer.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response batch write (default 30s).
	WriteTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	return c
}

// Server accepts connections and feeds their requests to an Engine.
type Server struct {
	cfg      ServerConfig
	eng      *Engine
	draining atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	connWG        sync.WaitGroup
	accepted      atomic.Uint64
	protoDropped  atomic.Uint64
	protoRejected atomic.Uint64

	// betweenFrames, when set, runs on a connection's reader after each
	// frame is handled and before the next read. Tests use it to land a
	// Shutdown kick between two frames; it is deliberately unexported.
	betweenFrames func()
}

// NewServer wraps an engine. The caller retains ownership of the engine
// until Shutdown, which closes it after the last connection drains.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	return &Server{cfg: cfg.withDefaults(), eng: eng, conns: map[net.Conn]struct{}{}}
}

// Engine returns the engine behind the server (metrics, tests).
func (s *Server) Engine() *Engine { return s.eng }

// Accepted returns the number of connections accepted so far.
func (s *Server) Accepted() uint64 { return s.accepted.Load() }

// ProtoDropped returns the number of connections dropped for protocol
// violations the reader cannot recover from (bad frame length, a
// desynchronized or mid-frame-aborted stream).
func (s *Server) ProtoDropped() uint64 { return s.protoDropped.Load() }

// ProtoRejected returns the number of well-framed requests carrying an
// invalid op. Those frames are answered with StatusBadRequest and the
// connection stays alive — they are rejected frames, not dropped
// connections.
func (s *Server) ProtoRejected() uint64 { return s.protoRejected.Load() }

// ProtoErrors returns ProtoDropped() + ProtoRejected().
//
// Deprecated: the two counts mean different things (a lost connection vs a
// survivable bad frame); use the split counters.
func (s *Server) ProtoErrors() uint64 { return s.protoDropped.Load() + s.protoRejected.Load() }

// Serve runs the accept loop on ln until Shutdown. It returns nil on
// graceful shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			c.Close()
			continue
		}
		s.accepted.Add(1)
		s.track(c, true)
		s.connWG.Add(1)
		go s.handle(c)
	}
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) track(c net.Conn, add bool) {
	s.mu.Lock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
	s.mu.Unlock()
}

// Shutdown drains gracefully: stop accepting, kick every reader out of its
// blocking read, let in-flight requests complete and their responses
// flush, close the connections, then drain the engine. Every request whose
// frame was fully read before shutdown receives exactly one response.
func (s *Server) Shutdown() {
	s.kick()
	s.connWG.Wait()
	s.eng.Close()
}

// kick starts the drain: it marks the server draining, closes the listener
// and wakes every reader blocked on its socket. A reader between two frames
// is not blocked, so the wakeup cannot reach it; it sees draining instead,
// because it re-checks the flag after arming each read deadline.
func (s *Server) kick() {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		// Wake blocked readers immediately; handle() sees draining and
		// stops reading new frames instead of treating this as idleness.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
}

// wireResp is one response ready to encode. Its tag's dialect selects the
// encoding: a response always answers in its request's framing dialect, so
// pre-range clients (which read with a hard 13-byte bound) never see the
// v2 header.
type wireResp struct {
	t tag
	r Response
}

// conn is one connection's completer: completing a request queues its
// response for the connection's writer. The send never blocks — the reader
// reserved a slot (inflight) before submitting, and resps has one slot per
// inflight reservation. outstanding counts submitted requests whose
// response is not queued yet, so the reader can wait for the tail.
type conn struct {
	resps       chan wireResp
	outstanding sync.WaitGroup
}

func (cn *conn) complete(t tag, r Response) {
	cn.resps <- wireResp{t: t, r: r}
	cn.outstanding.Done()
}

// respBatchBytes is the writer's batching budget: keep encoding queued
// responses until the buffer holds this much, then flush the run in one
// write. With variable-length responses a byte budget (not a response
// count) is what actually bounds the write size — one full range response
// can exceed it alone, and then it simply flushes by itself.
const respBatchBytes = 16 * 1024

// respBufCap is the retained capacity cap for the writer's encode buffer:
// a range-heavy burst may grow it to megabytes; past this it is dropped
// after the flush so one burst does not pin the peak for the connection's
// lifetime.
const respBufCap = 64 * 1024

// handle runs one connection: a reader loop (this goroutine) that parses
// frames and submits them, and a writer goroutine that encodes completed
// responses in batches. The in-flight semaphore bounds the gap between
// them; outstanding tracks submitted-but-unwritten requests so shutdown
// can wait for the tail.
func (s *Server) handle(c net.Conn) {
	defer s.connWG.Done()
	defer s.track(c, false)

	var (
		inflight   = make(chan struct{}, s.cfg.MaxInflight) // semaphore
		cn         = &conn{resps: make(chan wireResp, s.cfg.MaxInflight)}
		dead       atomic.Bool // writer hit a write error
		writerDone = make(chan struct{})
	)

	go func() { // writer
		defer close(writerDone)
		bw := bufio.NewWriter(c)
		buf := make([]byte, 0, respBatchBytes)
		flush := func() {
			if len(buf) == 0 {
				return
			}
			c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if !dead.Load() {
				if _, err := bw.Write(buf); err != nil || bw.Flush() != nil {
					// Keep draining so completions and the reader's
					// semaphore never wedge on a dead peer.
					dead.Store(true)
					c.SetReadDeadline(time.Now())
				}
			}
			if cap(buf) > respBufCap {
				buf = make([]byte, 0, respBatchBytes)
			} else {
				buf = buf[:0]
			}
		}
		encode := func(wr wireResp) {
			if wr.t.v1 {
				buf = appendResponseV1(buf, wr.t.id, wr.r)
			} else {
				buf = appendResponse(buf, wr.t.id, wr.r)
				// The pairs are encoded; the merged result goes back to
				// the pool it was drawn from (see SubmitRequest).
				resultPairs.put(wr.r.Pairs)
			}
		}
		for wr := range cn.resps {
			encode(wr)
			<-inflight
			// Batch: keep encoding while more responses are ready, then
			// flush the whole run in one write.
			for len(buf) < respBatchBytes {
				select {
				case more, ok := <-cn.resps:
					if !ok {
						flush()
						return
					}
					encode(more)
					<-inflight
				default:
					goto emit
				}
			}
		emit:
			flush()
		}
		flush()
	}()

	br := bufio.NewReader(c)
	frame := make([]byte, maxReqFrame)
	for !dead.Load() {
		if !frameBuffered(br) {
			// This read can reach the socket. Arm the idle deadline, then
			// re-check the two flags whose setters kick the reader (Shutdown
			// sets draining, the writer sets dead): a kick that landed
			// before the arm was overwritten by it, but its flag was set
			// first, so it is seen here; one that lands after the arm
			// times the read out.
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			if s.draining.Load() || dead.Load() {
				break
			}
		}
		payload, err := readFrame(br, maxReqFrame, frame)
		if err != nil {
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				// Shutdown kick or idle timeout: stop reading new frames
				// either way; in-flight requests still complete below.
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
				// Clean close by the peer.
			default:
				s.protoDropped.Add(1) // malformed frame or mid-frame abort
			}
			break
		}
		id, req, legacy, perr := parseRequest(payload)
		if perr != nil {
			// An announced length that is neither request version means a
			// desynchronized stream; nothing after it can be trusted.
			s.protoDropped.Add(1)
			break
		}
		// Reserve a semaphore slot before submitting: at most MaxInflight
		// responses can ever be queued, so resps never blocks a worker.
		inflight <- struct{}{}
		cn.outstanding.Add(1)
		t := tag{id: id, v1: legacy}
		// A v1 frame only speaks the pre-range op set: its 13-byte response
		// cannot carry pairs, so a v1-framed RANGE is a bad request — the
		// same verdict the v1 server gave op 5.
		if !req.Op.valid() || (legacy && req.Op > OpDel) {
			cn.complete(t, Response{Status: StatusBadRequest})
			s.protoRejected.Add(1)
		} else if err := s.eng.submit(req, cn, t); err != nil {
			// ErrBusy (queue full) and ErrShedding (unreclaimed backlog
			// above the hard watermark) are both transient overload: the
			// client sees StatusBusy and retries with backoff.
			st := StatusBusy
			if errors.Is(err, ErrClosed) {
				st = StatusShutdown
			}
			cn.complete(t, Response{Status: st})
		}
		if h := s.betweenFrames; h != nil {
			h()
		}
	}
	cn.outstanding.Wait() // every submitted request has enqueued its response
	close(cn.resps)
	<-writerDone // responses flushed (or the conn is dead)
	c.Close()
}
